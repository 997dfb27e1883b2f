"""Unit tests for Gate and Latch."""

import pytest

from repro.sim.sync import Gate, Latch


class TestGate:
    def test_fire_wakes_all_waiters(self, engine):
        gate = Gate(engine)
        waits = [gate.wait(), gate.wait()]
        gate.fire(7)
        values = [engine.run(w) for w in waits]
        assert values == [7, 7]

    def test_waiters_cleared_after_fire(self, engine):
        gate = Gate(engine)
        gate.wait()
        gate.fire(1)
        # Firing again must not retrigger the already-fired waiter.
        gate.fire(2)
        engine.run()


class TestLatch:
    def test_counts_down_to_done(self, engine):
        latch = Latch(engine, 2)
        assert not latch.done.triggered
        latch.count_down()
        assert not latch.done.triggered
        latch.count_down()
        assert latch.done.triggered

    def test_zero_count_immediately_done(self, engine):
        latch = Latch(engine, 0)
        assert latch.done.triggered

    def test_overshoot_ignored(self, engine):
        latch = Latch(engine, 1)
        latch.count_down()
        latch.count_down()
        assert latch.remaining <= 0

    def test_negative_count_rejected(self, engine):
        with pytest.raises(ValueError):
            Latch(engine, -1)

    def test_bulk_count_down(self, engine):
        latch = Latch(engine, 5)
        latch.count_down(5)
        assert latch.done.triggered
