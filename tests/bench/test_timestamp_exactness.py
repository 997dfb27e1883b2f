"""Simulated-timestamp exactness across the micro matrix (CI gate).

The integer-tick clock makes two promises, and this module is the
regression surface for both (CI runs it as the timestamp-exactness
check):

1. microsecond-aligned workloads record *exact* microsecond floats —
   summing 20000 one-microsecond delays yields ``0.02``, not the
   ``0.019999999999999348`` the float accumulator produced;
2. residue-carrying workloads (hardware cost models emit arbitrary
   float durations) stay bit-identical run to run: the error of each
   conversion is bounded per event and never accumulates, so repeating
   a case reproduces the identical simulated clock.
"""

import pytest

from repro.bench import micro
from repro.bench.micro import MICRO_BENCHMARKS
from repro.sim.timebase import from_ticks, is_us_aligned, to_ticks

#: cases whose simulated work is built purely from whole-microsecond
#: delays — these must land exactly on the microsecond grid
ALIGNED_CASES = {"condition_wait", "process_wakeups"}

_CASES = {c.name: c for c in MICRO_BENCHMARKS}


def test_condition_wait_full_matrix_is_exactly_20ms():
    """The original drift bug, at full size: 20000 x 1 us == 0.02."""
    case = _CASES["condition_wait"]
    info = case.fn(case.full_n)
    assert info["simulated"] == 0.02
    assert is_us_aligned(info["simulated"])


def test_process_wakeups_zero_delay_stays_at_zero():
    case = _CASES["process_wakeups"]
    assert case.fn(case.smoke_n)["simulated"] == 0.0


def test_event_churn_accumulates_zero_drift():
    """20000 events with 0.1-us-multiple delays must finish exactly at
    the single-conversion image of the max delay (1.2 us): any float
    accumulation in the clock would shear the last digits."""
    case = _CASES["event_churn"]
    info = case.fn(case.smoke_n)
    assert info["simulated"] == from_ticks(to_ticks(12e-7))


@pytest.mark.parametrize("case", MICRO_BENCHMARKS, ids=lambda c: c.name)
def test_micro_simulated_timestamps_are_exact(case):
    """Every micro case's recorded simulated clock is exact.

    Aligned cases must pass the strict microsecond check; cost-model
    cases must reproduce the identical float on a second run (the tick
    clock has no run-order or accumulation noise to leak).
    """
    info = case.fn(case.smoke_n)
    sim = info["simulated"]
    assert sim is not None and sim >= 0.0
    if case.name in ALIGNED_CASES:
        assert is_us_aligned(sim)
    else:
        rerun = case.fn(case.smoke_n)["simulated"]
        assert rerun == sim


def test_cached_inputs_do_not_change_simulated_results():
    """The bench input cache must be a pure wall-clock optimization:
    cached and fresh inputs drive bit-identical simulated runs."""
    from repro.core.config import FluidiCLConfig
    from repro.core.runtime import FluidiCLRuntime
    from repro.hw.machine import build_machine
    from repro.polybench.suite import make_app

    def run(inputs):
        machine = build_machine()
        config = FluidiCLConfig(initial_chunk_fraction=0.02,
                                chunk_step_fraction=0.0)
        runtime = FluidiCLRuntime(machine, config=config)
        app = make_app("gesummv", "test", size=256)
        result = app.execute(runtime, inputs=inputs, check=False)
        runtime.drain()
        return result.elapsed

    app = make_app("gesummv", "test", size=256)
    assert run(micro._cached_inputs(app)) == run(app.fresh_inputs())
