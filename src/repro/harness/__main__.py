"""Regenerate every table/figure: ``python -m repro.harness [ids...]``.

Subcommands:

- ``python -m repro.harness trace [--smoke] [--app NAME] [--out PATH]`` —
  run one benchmark under FluidiCL and export its execution timeline as
  Chrome-trace JSON (see :mod:`repro.harness.trace_cli`).
- ``python -m repro.harness check [--seeds N] [--budget-s S]`` — run a
  bounded schedule-space fuzzing campaign with online coherence checking
  (see :mod:`repro.harness.check_cli` and :mod:`repro.check`).
- ``python -m repro.harness lint [--apps ...] [--known-bad]`` —
  statically analyze the suite's kernels for intent drift,
  cross-work-group races and abort-check placement, and its pipelines
  for FK4xx/FK5xx inter-stage dataflow hazards, in one report (see
  :mod:`repro.harness.lint_cli` and :mod:`repro.analysis`).
- ``python -m repro.harness bench [--smoke] [--threshold X]`` — run the
  pinned layer microbenchmarks, persist a ``BENCH_<n>.json`` snapshot and gate
  wall-clock regressions against the committed baseline (see
  :mod:`repro.harness.bench_cli` and :mod:`repro.bench`).
- ``python -m repro.harness scenarios [--list] [names...]`` — run named,
  seeded demo scenarios (app x machine preset x fault schedule x chunker
  settings) through the coherence-checked fuzzer pipeline (see
  :mod:`repro.harness.scenarios_cli`).
- ``python -m repro.harness serve [--requests N] [--arrival MODEL]
  [--faults SEED]`` — run a multi-tenant SLO load test through the
  serving layer with online coherence checking, reporting per-tenant
  tail latencies, shed rate and SLO attainment (see
  :mod:`repro.harness.serve_cli` and :mod:`repro.serve`).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness.bench_cli import bench_main
from repro.harness.check_cli import check_main
from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment
from repro.harness.extensions import EXTENSION_EXPERIMENTS
from repro.harness.lint_cli import lint_main
from repro.harness.scenarios_cli import scenarios_main
from repro.harness.serve_cli import serve_main
from repro.harness.trace_cli import trace_main


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "check":
        return check_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "bench":
        return bench_main(argv[1:])
    if argv and argv[0] == "scenarios":
        return scenarios_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the FluidiCL paper's tables and figures.",
        epilog=(
            "Subcommands: 'trace' exports a Chrome-trace timeline of one "
            "FluidiCL run (python -m repro.harness trace --help); 'check' "
            "runs a schedule-space fuzzing campaign with online coherence "
            "checking (python -m repro.harness check --help); 'lint' runs "
            "the static kernel and pipeline analyzers over the suite and "
            "examples (python -m repro.harness lint --help); 'bench' runs the "
            "pinned layer microbenchmarks and persists a BENCH_<n>.json "
            "snapshot (python -m repro.harness bench --help); 'scenarios' "
            "runs named seeded demo scenarios through the coherence-"
            "checked pipeline (python -m repro.harness scenarios --help); "
            "'serve' runs a multi-tenant SLO load test through the serving "
            "layer (python -m repro.harness serve --help)."
        ),
    )
    parser.add_argument(
        "experiments", nargs="*", default=list(ALL_EXPERIMENTS),
        help=(
            "experiment ids to run (default: the paper artifacts "
            f"{', '.join(ALL_EXPERIMENTS)}; extensions: "
            f"{', '.join(EXTENSION_EXPERIMENTS)})"
        ),
    )
    parser.add_argument(
        "--extensions", action="store_true",
        help="also run the extension experiments after the requested ones",
    )
    args = parser.parse_args(argv)
    experiment_ids = list(args.experiments)
    if args.extensions:
        experiment_ids += [
            e for e in EXTENSION_EXPERIMENTS if e not in experiment_ids
        ]
    for experiment_id in experiment_ids:
        began = time.perf_counter()
        result = run_experiment(experiment_id)
        elapsed = time.perf_counter() - began
        print(result.render())
        print(f"  [harness wall time: {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
