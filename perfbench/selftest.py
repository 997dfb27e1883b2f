"""Self-test of the layer spans: a planted delay shows in one layer only.

Run from the repository root::

    python3 perfbench/selftest.py

For each planted layer, it runs traced passes of a small ``checked``-style
workload (traced node, coherence monitor) as is and with a fixed
busy-wait added to one public function of that layer.  The planted
layer's self time must grow by about the planted total (calls x delay),
and every other layer's self time must stay within a small share of it.
Exit status is 0 when every planted layer passes, 1 otherwise.
"""

import os
import sys
import time

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

PASSES = 5
#: planted layer's growth must fall within this share of the planted total
GROWTH = (0.8, 1.3)
#: every other layer's growth must stay under this share of it
LEAK = 0.15


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _planted(fn, delay, calls):
    def delayed(*args, **kwargs):
        calls[0] += 1
        _busy(delay)
        return fn(*args, **kwargs)

    return delayed


def _self_times(workload, plant=None):
    """Median self seconds per layer over traced passes; with ``plant``
    ``(owner, name, delay)``, that function is delayed first (so the span
    that wraps it times the delay)."""
    import statistics

    import spans

    calls = [0]
    planted = spans.Patches()
    if plant is not None:
        owner, name, delay = plant
        planted.wrap(owner, name, lambda fn: _planted(fn, delay, calls))
    per_pass = []
    try:
        for k in range(PASSES):
            log = spans.SpanLog()
            patches = spans.install(log, workload.app_classes())
            try:
                workload.run_pass(k, log)
            finally:
                patches.restore()
            per_pass.append(spans.rollup(log))
    finally:
        planted.restore()
    medians = {layer: statistics.median(p[layer] for p in per_pass)
               for layer in spans.LAYERS}
    return medians, calls[0] / PASSES


def main() -> int:
    import cases
    from repro.core.runtime import FluidiCLRuntime
    from repro.obs.recorder import EventRecorder
    from repro.ocl.kernel import Kernel
    from repro.ocl.queue import CommandQueue

    # delays sized so each plant adds 0.2-0.3 s per pass, well above the
    # pass-to-pass noise of any one layer (about 20 ms)
    plants = (
        ("kernels", Kernel, "run_span", 3e-3),
        ("core", FluidiCLRuntime, "create_buffer", 15e-3),
        ("ocl", CommandQueue, "enqueue", 3e-3),
        ("obs", EventRecorder, "record", 1e-3),
    )
    tally = cases.Tally()
    workload = cases.AppWorkload(
        "selftest",
        [cases.Case(app, "default") for app in ("gesummv", "bicg", "spmv")],
        checked=True, seed=1, passes_per_second=1.0, tally=tally)
    workload.setup_round()
    base, _ = _self_times(workload)
    failures = 0
    for layer, owner, name, delay in plants:
        times, calls = _self_times(workload, (owner, name, delay))
        planted = calls * delay
        growth = {k: times[k] - base[k] for k in times}
        leaks = {k: v for k, v in growth.items()
                 if k != layer and abs(v) > LEAK * planted}
        share = growth[layer] / planted if planted else 0.0
        ok = (planted > 0 and GROWTH[0] <= share <= GROWTH[1]
              and not leaks)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {owner.__name__}.{name}: "
              f"planted {planted * 1e3:.1f} ms over {calls:.0f} calls, "
              f"{layer}.self_s grew {growth[layer] * 1e3:.1f} ms "
              f"({share:.0%})"
              + (f"; other layers grew {leaks}" if leaks else ""))
    if tally.failed or tally.problems:
        print(f"FAIL {tally.failed} op(s) failed their checks")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
