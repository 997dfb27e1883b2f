"""Persisted benchmark harness: wall-clock measurement of the layer micros.

The simulator reports *simulated* seconds — the paper's metric — but the
repository itself must also run "as fast as the hardware allows"
(ROADMAP).  :mod:`repro.bench` measures the *host* cost of one layer at
a time (engine event churn, process wakeups, subkernel launch rate, host
round-trips, fuzzer seeds/sec, the closed-loop serve path) with
``time.perf_counter``, and persists schema-versioned ``BENCH_<n>.json``
snapshots so every future PR has a perf trajectory to answer to.  Whole
cooperative runs are timed by ``perfbench/``; their simulated seconds
are pinned by ``tests/bench/test_sim_pins.py``.

Three layers:

* :mod:`repro.bench.measure` — warmup + repeats wall-clock timing.
* :mod:`repro.bench.micro` — the pinned microbenchmark definitions.
* :mod:`repro.bench.snapshot` — ``BENCH_<n>.json`` persistence, baseline
  discovery and threshold-gated regression comparison.

Run it via ``python -m repro.harness bench`` (see
:mod:`repro.harness.bench_cli`).
"""

from repro.bench.measure import Measurement, measure
from repro.bench.micro import MICRO_BENCHMARKS, run_micro_benchmarks
from repro.bench.snapshot import (
    SCHEMA_VERSION,
    BenchResult,
    BenchSnapshot,
    Comparison,
    compare_snapshots,
    find_snapshots,
    load_snapshot,
    next_snapshot_path,
)

__all__ = [
    "Measurement",
    "measure",
    "MICRO_BENCHMARKS",
    "run_micro_benchmarks",
    "SCHEMA_VERSION",
    "BenchResult",
    "BenchSnapshot",
    "Comparison",
    "compare_snapshots",
    "find_snapshots",
    "load_snapshot",
    "next_snapshot_path",
]
