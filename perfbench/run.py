"""Repository benchmark: FluidiCL on the simulated clock and the host clock.

Run from the repository root::

    python3 perfbench/run.py --workload pair --seed 1 --seconds 30 --trace 0

``--workload`` is ``pair``, ``checked`` or ``serve`` (see ``NOTES.md``).
With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every
per-layer metric, from a run that also times each layer's public
functions, checks that the traced run reproduces the untraced run's
simulated results, and cross-checks the layer shares against a
``cProfile`` rollup.  Spans of the traced run are written to
``out/perfbench/``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

import os
import sys
import time

_STARTED = time.perf_counter()

# One BLAS/OpenMP thread: on a small shared host, threaded BLAS makes
# matmul-heavy kernels swing from 2% to 100% of their median rate.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: setup rounds per run; ``setup_s`` reports their median
SETUP_ROUNDS = 3


def _parse_args(argv):
    import argparse

    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pair", "checked", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sets the fixed work of the run: passes are "
                             "calibrated to take about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    import statistics

    return statistics.median(values)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(workload, passes: int):
    import gc

    gc.collect()
    results = [workload.run_pass(k) for k in range(passes)]
    return results[0].ops / _median([r.seconds for r in results])


def _speedup_sweep(workload, seed: int, tally):
    """``speedup.<app>.<preset>`` for every case of ``pair`` and
    ``checked``, at this run's seed; cases the workload does not run are
    set up and run once here, untimed."""
    import cases

    speedups = {}
    for name in ("pair", "checked"):
        source = workload
        if workload.name != name:
            source = cases.make_workload(name, seed, tally)
            source.setup_round()
        for key, value in source.speedups().items():
            if workload.name == name or key not in speedups:
                speedups[key] = value
    return speedups


def _traced(workload, passes: int, seed: int, tally):
    import gc

    import cases
    import spans

    plain = [workload.run_pass(k) for k in range(max(2, passes // 2))]
    # read before the traced passes, which repeat these ones
    sim_layers = workload.layer_sim_metrics()
    log = spans.SpanLog()
    patches = spans.install(log, workload.app_classes())
    try:
        gc.collect()
        traced = [workload.run_pass(k, log)
                  for k in range(max(1, passes // 4))]
    finally:
        patches.restore()
    metrics = spans.layer_metrics(log)
    metrics["trace.overhead"] = (_median([r.seconds for r in traced])
                                 / _median([r.seconds for r in plain]))

    spans.save(log, os.path.join(
        ROOT, "out", "perfbench",
        f"spans-{workload.name}-seed{seed}.npz"))
    by_span = spans.span_shares(spans.rollup(log))
    by_profile = spans.profile_shares(lambda: workload.run_pass(0))
    print("layer share of op time: spans vs cProfile tottime by package")
    for group in list(spans.COMPARE_GROUPS) + ["other"]:
        print(f"  {group:12s} {by_span.get(group, 0.0):7.1%} "
              f"{by_profile.get(group, 0.0):7.1%}")

    metrics.update(sim_layers)
    metrics.update(_speedup_sweep(workload, seed, tally))
    metrics.update(cases.serve_profiles())
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import json

    import cases

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    tally = cases.Tally()
    workload = cases.make_workload(args.workload, args.seed, tally)
    import_s = time.perf_counter() - _STARTED
    rounds = [workload.setup_round() for _ in range(SETUP_ROUNDS)]
    setup = {f"setup.{phase}": _median([r[phase] for r in rounds])
             for phase in rounds[0]}
    setup["setup.import_s"] = import_s
    setup_s = import_s + _median([sum(r.values()) for r in rounds])
    passes = workload.passes(args.seconds)

    if args.trace:
        metrics = _traced(workload, passes, args.seed, tally)
        metrics.update(setup)
        wanted = spec["per_layer"]
    else:
        metrics = {"ops_per_s": _untraced(workload, passes)}
        metrics.update(workload.sim_metrics())
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = _peak_rss_mb()
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    correct = tally.failed == 0 and not tally.problems
    if not correct:
        print(f"perfbench: {tally.failed} of {tally.attempted} ops failed "
              f"checks", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
