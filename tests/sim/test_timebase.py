"""Property tests for the fixed-point time base (``repro.sim.timebase``)."""

import math
import random

import pytest

from repro.sim.core import Engine, Event
from repro.sim.timebase import (
    NEGATIVE_SLACK_SECONDS,
    TICKS_PER_US,
    delay_to_ticks,
    from_ticks,
    is_us_aligned,
    to_ticks,
)


#: one tick, in seconds: the absolute quantization floor of the clock
_TICK_SECONDS = 1e-6 / TICKS_PER_US


class TestTickRoundTrip:
    def test_round_trip_error_bounded_per_conversion(self):
        """|from_ticks(to_ticks(s)) - s| <= ~max(1 tick, 2 ulp), always.

        Below a microsecond the double is finer than the tick grid, so
        the bound is one tick of *absolute* error (2.2e-22 s); above it
        the tick grid is finer than the double and the bound is the two
        float roundings of the conversions.  Either way the error is
        per-conversion: the integer clock never sums floats, so a
        million events carry a million independent bounded errors
        instead of a compounding drift.  Durations at or above a
        nanosecond keep >= 40 significant tick bits, so their relative
        error also stays below 1e-12.
        """
        rng = random.Random(7)
        for _ in range(5000):
            s = rng.uniform(0.0, 10.0) * 10.0 ** rng.randint(-9, 0)
            y = from_ticks(to_ticks(s))
            assert abs(y - s) <= 2 * _TICK_SECONDS + 2 * math.ulp(s)
            if s >= 1e-9:
                assert abs(y - s) <= 1e-12 * s
        for s in (0.0, 1e-9, 1.5e-7, 0.019999999999999348, 123.456):
            y = from_ticks(to_ticks(s))
            assert abs(y - s) <= 2 * _TICK_SECONDS + 2 * math.ulp(s)

    def test_us_multiples_convert_exactly(self):
        """Canonical microsecond floats snap to exactly ``k << 52`` ticks
        and re-render to the identical float."""
        rng = random.Random(11)
        for _ in range(2000):
            k = rng.randint(0, 10**9)
            s = k / 1e6
            assert is_us_aligned(s)
            assert to_ticks(s) == k * TICKS_PER_US
            assert from_ticks(k * TICKS_PER_US) == s

    def test_aligned_values_round_trip_exactly(self):
        """is_us_aligned(s) implies a bit-exact round trip."""
        rng = random.Random(17)
        for _ in range(2000):
            s = rng.randint(0, 10**12) / 1e6
            assert from_ticks(to_ticks(s)) == s

    def test_summing_aligned_delays_accumulates_zero_error(self):
        """20000 x 1 microsecond is *exactly* 0.02 — the condition_wait
        drift case, fixed structurally."""
        ticks = 0
        one_us = to_ticks(1e-6)
        for _ in range(20000):
            ticks += one_us
        assert from_ticks(ticks) == 0.02


class TestStrictQuantization:
    def test_is_us_aligned(self):
        assert is_us_aligned(0.02)
        assert is_us_aligned(0.0)
        assert is_us_aligned(5e-6)
        assert not is_us_aligned(1.5e-7)
        assert not is_us_aligned(0.019999999999999348)


class TestNegativeDeltaGuard:
    """Float subtraction like ``deadline - now`` can land a few ULP below
    zero; the boundary must absorb that without ever accepting a real
    negative delay."""

    def test_tiny_negative_clamps_to_zero(self):
        assert delay_to_ticks(-1e-18) == 0
        assert delay_to_ticks(-0.0) == 0
        assert delay_to_ticks(-NEGATIVE_SLACK_SECONDS) == 0

    def test_real_negative_raises(self):
        with pytest.raises(ValueError, match="cannot schedule into the past"):
            delay_to_ticks(-0.5)
        with pytest.raises(ValueError):
            delay_to_ticks(-1e-3)

    def test_engine_timeout_tiny_negative_fires_now(self):
        engine = Engine()
        done = engine.timeout(-1e-18, value="ok")
        assert engine.run(done) == "ok"
        assert engine.now == 0.0

    def test_engine_timeout_real_negative_raises(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.timeout(-0.5)

    def test_engine_schedule_tiny_negative_ok(self):
        engine = Engine()
        event = Event(engine)
        event.succeed(delay=-1e-18)
        engine.run()
        assert event.processed

    def test_engine_schedule_real_negative_raises(self):
        engine = Engine()
        event = Event(engine)
        with pytest.raises(ValueError):
            event.succeed(delay=-0.5)


class TestEngineClockExactness:
    def test_now_is_tick_derived(self):
        engine = Engine()
        for _ in range(1000):
            engine.run(engine.timeout(1e-6))
        assert engine.now == 0.001
        assert engine.now_ticks == 1000 * TICKS_PER_US

    def test_run_for_advances_exactly(self):
        engine = Engine()
        for _ in range(7):
            engine.run_for(3e-6)
        assert engine.now == 21e-6

    def test_arbitrary_cost_delays_keep_residue(self):
        """Sub-microsecond cost-model durations are not quantized away:
        the clock lands within one tick of the exact delay (NOT on the
        microsecond grid) and renders through the single from_ticks
        boundary."""
        engine = Engine()
        delay = 1 / 3 * 1e-6
        engine.run(engine.timeout(delay))
        assert engine.now == from_ticks(to_ticks(delay))
        assert abs(engine.now - delay) <= 2 * _TICK_SECONDS
        assert not is_us_aligned(engine.now)
