"""``python -m repro.harness check`` — bounded fuzzing campaigns.

Runs N seeded schedule-space configurations (:mod:`repro.check`) under a
wall-clock budget, prints a per-seed log and a summary table, and — when a
seed fails — shrinks it to a minimal reproducer written as a ready-to-run
pytest file.

Exit status is 1 if any seed failed (invariant violation, wrong result or
runtime crash), 0 otherwise.  Seeds skipped by the budget are reported but
do not fail the campaign.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.check.fuzzer import (
    CORRUPTION_KINDS,
    CheckResult,
    ScheduleFuzzer,
    run_config,
)
from repro.check.shrink import reproducer_source, shrink
from repro.hw.machine import MACHINE_PRESETS
from repro.polybench.suite import EXTENDED_SUITE

__all__ = ["check_main", "name_list", "bounded"]

DEFAULT_REPRODUCER = os.path.join("out", "check-reproducer.py")


def name_list(valid: Sequence[str]) -> Callable[[str], Tuple[str, ...]]:
    """argparse ``type=`` for a comma-separated subset of ``valid``.

    An unknown name is a usage error (exit status 2, valid names listed),
    never a failed campaign or a lint finding (exit status 1).
    """
    def parse(text: str) -> Tuple[str, ...]:
        names = tuple(text.split(","))
        unknown = [name for name in names if name not in valid]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {', '.join(map(repr, unknown))} "
                f"(choose from {', '.join(map(repr, valid))})"
            )
        return names

    return parse


def bounded(kind: Callable[[str], float], low: float,
            high: Optional[float] = None, *,
            exclusive: bool = False) -> Callable[[str], float]:
    """argparse ``type=`` for a number ``>= low`` (``> low`` when
    ``exclusive``) and, with ``high``, ``< high``.

    Like :func:`name_list`, an out-of-range value is a usage error (exit
    status 2, the bound named) before anything runs, never a failed run.
    """
    rule = f"{'>' if exclusive else '>='} {low}"
    if high is not None:
        rule += f" and < {high}"

    def parse(text: str) -> float:
        value = kind(text)
        inside = value > low if exclusive else value >= low
        if not inside or (high is not None and not value < high):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    # argparse names the type in its "invalid <type> value" error
    parse.__name__ = kind.__name__
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness check",
        description=(
            "Fuzz the FluidiCL schedule space and check coherence "
            "invariants online (see DESIGN.md, 'Schedule-space fuzzing')."
        ),
    )
    parser.add_argument("--seeds", type=bounded(int, 1), default=20,
                        help="number of seeds to run (default: 20)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first seed (campaigns are resumable by range)")
    parser.add_argument("--budget-s", type=bounded(float, 0), default=None,
                        help="wall-clock budget in seconds; remaining seeds "
                             "are skipped once exceeded")
    parser.add_argument("--apps", default=EXTENDED_SUITE,
                        type=name_list(EXTENDED_SUITE),
                        help="comma-separated benchmark subset "
                             f"(default: {','.join(EXTENDED_SUITE)})")
    parser.add_argument("--machines", default=("default",),
                        type=name_list(sorted(MACHINE_PRESETS)),
                        help="comma-separated machine presets to round-robin "
                             "over the seeds (see MACHINE_PRESETS; default: "
                             "default)")
    parser.add_argument("--serve", action="store_true",
                        help="fuzz the serving layer instead: each seed is "
                             "a multi-tenant load test (seeded tenant mix, "
                             "arrival model, admission limits, optional "
                             "faults) checked against the serve-accounting "
                             "invariant")
    parser.add_argument("--no-faults", action="store_true",
                        help="draw configurations without fault schedules")
    parser.add_argument("--no-jitter", action="store_true",
                        help="draw configurations without interleave jitter")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report the first failure without shrinking it")
    parser.add_argument("--reproducer-out", default=DEFAULT_REPRODUCER,
                        help="where to write the shrunk pytest reproducer "
                             f"(default: {DEFAULT_REPRODUCER})")
    parser.add_argument("--known-bad", choices=CORRUPTION_KINDS, default=None,
                        help="test-only: inject a known-bad event corruption "
                             "into the first seed to validate the checker "
                             "end to end (the campaign is expected to fail)")
    return parser


def _summarize(results: List[CheckResult], skipped: int,
               wall: float) -> List[str]:
    lines = []
    by_app = {}
    for r in results:
        label = "serve" if r.config.serve is not None else r.config.app
        row = by_app.setdefault(label, {"runs": 0, "ok": 0,
                                               "lost": 0, "rej": 0,
                                               "fail": 0, "checks": 0})
        row["runs"] += 1
        row["checks"] += r.checks
        if r.failed:
            row["fail"] += 1
        elif r.outcome == "device-lost":
            row["lost"] += 1
        elif r.outcome == "lint-rejected":
            row["rej"] += 1
        else:
            row["ok"] += 1
    lines.append(f"{'app':10s} {'runs':>5s} {'ok':>4s} {'dev-lost':>9s} "
                 f"{'lint-rej':>9s} {'failed':>7s} {'checks':>8s}")
    for app in sorted(by_app):
        row = by_app[app]
        lines.append(f"{app:10s} {row['runs']:5d} {row['ok']:4d} "
                     f"{row['lost']:9d} {row['rej']:9d} {row['fail']:7d} "
                     f"{row['checks']:8d}")
    failed = sum(1 for r in results if r.failed)
    total_checks = sum(r.checks for r in results)
    lines.append(
        f"total: {len(results)} seed(s), {failed} failed, "
        f"{total_checks} invariant checks, {skipped} skipped by budget, "
        f"{wall:.1f}s wall")
    return lines


def check_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    fuzzer = ScheduleFuzzer(apps=args.apps, faults=not args.no_faults,
                            jitter=not args.no_jitter, machines=args.machines,
                            serve=args.serve)
    began = time.monotonic()
    deadline = began + args.budget_s if args.budget_s is not None else None
    results: List[CheckResult] = []
    skipped = 0
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        if deadline is not None and time.monotonic() >= deadline:
            skipped = args.start_seed + args.seeds - seed
            print(f"budget exhausted; skipping remaining {skipped} seed(s)")
            break
        config = fuzzer.config(seed)
        if args.known_bad is not None and seed == args.start_seed:
            config = replace(config, corruption=args.known_bad)
        result = run_config(config)
        results.append(result)
        print(f"seed {seed:<4d} {result.summary()}")
        for violation in result.violations:
            print(f"           !! {violation}")

    print()
    for line in _summarize(results, skipped, time.monotonic() - began):
        print(line)

    first_failed = next((r for r in results if r.failed), None)
    if first_failed is None:
        return 0
    if args.no_shrink:
        print(f"\nfirst failure: {first_failed.config.describe()} "
              "(shrinking disabled)")
        return 1
    print(f"\nshrinking failing seed {first_failed.config.seed} ...")
    shrunk = shrink(first_failed.config, baseline=first_failed)
    for step in shrunk.steps:
        print(f"  - {step}")
    print(f"  minimal: {shrunk.minimal.describe()} "
          f"({shrunk.runs} shrink runs)")
    source = reproducer_source(shrunk)
    out_path = args.reproducer_out
    out_dir = os.path.dirname(out_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(source)
    print(f"  reproducer written to {out_path}")
    return 1
