"""``python -m repro.harness bench``: run the pinned benchmark matrix.

Runs the engine microbenchmarks and the polybench app matrix
(:mod:`repro.bench`), prints one throughput table, persists a
schema-versioned ``BENCH_<n>.json`` snapshot (next free number — never
rewriting an existing, possibly committed snapshot) and gates against a
baseline snapshot with a configurable wall-clock regression threshold.

Exit status: 0 on success, 1 when any case regressed beyond the
threshold or its *simulated* seconds drifted (a behaviour change, not a
performance one).
"""

from __future__ import annotations

import argparse
import datetime
import json
import time
from typing import List, Optional

from repro.bench.matrix import run_app_matrix
from repro.bench.micro import run_micro_benchmarks
from repro.bench.snapshot import (
    BenchSnapshot,
    Comparison,
    compare_snapshots,
    find_snapshots,
    host_fingerprint,
    load_snapshot,
    next_snapshot_path,
)
from repro.harness.report import format_table

__all__ = ["bench_main", "run_bench", "render_results", "render_comparison"]

#: default wall-clock regression gate: fail when a case runs more than
#: this factor slower than the baseline (CI passes a larger value — wall
#: clocks on shared runners are noisy; see DESIGN.md)
DEFAULT_THRESHOLD = 1.5


def run_bench(smoke: bool = False, repeats: int = 3, warmup: int = 1,
              micro_only: bool = False, apps_only: bool = False,
              notes: Optional[List[str]] = None) -> BenchSnapshot:
    """Run the pinned suite and return the (unpersisted) snapshot."""
    results = []
    if not apps_only:
        results += run_micro_benchmarks(smoke=smoke, repeats=repeats,
                                        warmup=warmup)
    if not micro_only:
        results += run_app_matrix(smoke=smoke, repeats=repeats,
                                  warmup=warmup)
    return BenchSnapshot(
        results=results,
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        host=host_fingerprint(),
        config={"smoke": smoke, "repeats": repeats, "warmup": warmup,
                "micro_only": micro_only, "apps_only": apps_only},
        notes=list(notes or []),
    )


def render_results(snapshot: BenchSnapshot) -> str:
    rows = []
    for r in snapshot.results:
        simulated = (f"{r.simulated_seconds:.6f}"
                     if r.simulated_seconds is not None else "-")
        rows.append([
            r.id, r.unit, f"{r.throughput:,.0f}", f"{r.wall_seconds * 1e3:.2f}",
            f"{r.spread:.2f}", simulated,
        ])
    return format_table(
        ["case", "unit", "throughput", "best_ms", "spread", "simulated_s"],
        rows,
    )


def render_comparison(comparison: Comparison) -> str:
    rows = []
    for case in comparison.cases:
        status = "REGRESSED" if case.regressed else (
            "SIM-DRIFT" if case.simulated_drift else "ok")
        rows.append([
            case.id, f"{case.baseline_throughput:,.0f}",
            f"{case.current_throughput:,.0f}", f"{case.ratio:.2f}x", status,
        ])
    table = format_table(
        ["case", "baseline", "current", "speedup", "status"], rows,
    )
    lines = [f"-- baseline: {comparison.baseline_path} "
             f"(threshold {comparison.threshold:.2f}x) --", table]
    if comparison.unmatched:
        lines.append(f"   unmatched cases (no comparison): "
                     f"{', '.join(comparison.unmatched)}")
    return "\n".join(lines)


def bench_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness bench",
        description=(
            "Run the pinned benchmark matrix (engine microbenchmarks + "
            "polybench app matrix), persist a BENCH_<n>.json snapshot and "
            "gate against a baseline snapshot."
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced matrix with small iteration counts (CI)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repeats per case; the best run is reported (default: 3)",
    )
    parser.add_argument(
        "--warmup", type=int, default=1,
        help="untimed warmup runs per case (default: 1)",
    )
    parser.add_argument(
        "--micro-only", action="store_true",
        help="run only the engine microbenchmarks",
    )
    parser.add_argument(
        "--apps-only", action="store_true",
        help="run only the polybench app matrix",
    )
    parser.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding BENCH_<n>.json snapshots (default: .)",
    )
    parser.add_argument(
        "--no-persist", action="store_true",
        help="do not write a BENCH_<n>.json snapshot",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="explicit snapshot path (overrides --dir numbering)",
    )
    parser.add_argument(
        "--baseline", default="auto", metavar="PATH",
        help=(
            "baseline snapshot to gate against: a path, 'auto' (highest-"
            "numbered BENCH_<n>.json in --dir, default) or 'none'"
        ),
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help=(
            "tolerated wall slowdown factor vs the baseline before the "
            f"run fails (default: {DEFAULT_THRESHOLD})"
        ),
    )
    parser.add_argument(
        "--no-simulated-check", action="store_true",
        help="do not fail when simulated seconds drift vs the baseline",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the snapshot as JSON instead of tables",
    )
    parser.add_argument(
        "--note", action="append", default=[], metavar="TEXT",
        help="free-form note recorded in the snapshot (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.micro_only and args.apps_only:
        parser.error("--micro-only and --apps-only are mutually exclusive")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    began = time.perf_counter()
    snapshot = run_bench(
        smoke=args.smoke, repeats=args.repeats, warmup=args.warmup,
        micro_only=args.micro_only, apps_only=args.apps_only,
        notes=args.note,
    )
    total_wall = time.perf_counter() - began

    # Baseline resolution happens *before* persisting, so a fresh snapshot
    # never becomes its own baseline.
    baseline_path: Optional[str] = None
    if args.baseline == "auto":
        existing = find_snapshots(args.dir)
        if existing:
            baseline_path = existing[-1][1]
    elif args.baseline != "none":
        baseline_path = args.baseline

    comparison: Optional[Comparison] = None
    if baseline_path is not None:
        baseline = load_snapshot(baseline_path)
        comparison = compare_snapshots(
            snapshot, baseline, threshold=args.threshold,
            baseline_path=baseline_path,
            check_simulated=not args.no_simulated_check,
        )

    out_path = None
    if not args.no_persist:
        out_path = args.out or next_snapshot_path(args.dir)
        snapshot.dump(out_path)

    if args.json:
        payload = snapshot.to_dict()
        if comparison is not None:
            payload["comparison"] = {
                "baseline": comparison.baseline_path,
                "threshold": comparison.threshold,
                "ok": comparison.ok,
                "cases": [vars(c) for c in comparison.cases],
            }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        mode = "smoke" if args.smoke else "full"
        print(f"== bench: {mode} matrix, {len(snapshot.results)} cases, "
              f"{total_wall:.1f}s wall ==")
        print(render_results(snapshot))
        if comparison is not None:
            print(render_comparison(comparison))
            best = comparison.best_improvement
            if best is not None:
                print(f"   best case vs baseline: {best.id} {best.ratio:.2f}x")
        if out_path:
            print(f"   snapshot -> {out_path}")

    if comparison is not None and not comparison.ok:
        for case in comparison.regressions:
            print(f"REGRESSION: {case.id} is {1.0 / case.ratio:.2f}x slower "
                  f"than {comparison.baseline_path} "
                  f"(threshold {comparison.threshold:.2f}x)")
        for case in comparison.drifted:
            print(f"SIMULATED DRIFT: {case.id} changed simulated seconds "
                  f"vs {comparison.baseline_path} — wall-clock work must "
                  f"not change simulator behaviour")
        return 1
    return 0
