"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim.core import Interrupt, SimDeadlockError, SimError


class TestEvent:
    def test_initially_pending(self, engine):
        event = engine.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, engine):
        event = engine.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok

    def test_value_before_trigger_raises(self, engine):
        event = engine.event()
        with pytest.raises(SimError):
            _ = event.value

    def test_double_trigger_raises(self, engine):
        event = engine.event()
        event.succeed()
        with pytest.raises(SimError):
            event.succeed()

    def test_fail_requires_exception(self, engine):
        event = engine.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callback_after_processing_runs_immediately(self, engine):
        event = engine.event()
        event.succeed(1)
        engine.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [1]

    def test_delayed_succeed(self, engine):
        event = engine.event()
        event.succeed("later", delay=5.0)
        engine.run(event)
        assert engine.now == 5.0


class TestTimeout:
    def test_advances_clock(self, engine):
        timeout = engine.timeout(3.5)
        engine.run(timeout)
        assert engine.now == pytest.approx(3.5)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-1)

    def test_carries_value(self, engine):
        timeout = engine.timeout(1.0, value="tick")
        assert engine.run(timeout) == "tick"

    def test_zero_delay_fires_now(self, engine):
        timeout = engine.timeout(0)
        engine.run(timeout)
        assert engine.now == 0.0


class TestProcess:
    def test_return_value(self, engine):
        def proc():
            yield engine.timeout(1)
            return "done"

        assert engine.run(engine.process(proc())) == "done"

    def test_sequencing(self, engine):
        log = []

        def proc(name, delay):
            yield engine.timeout(delay)
            log.append((engine.now, name))

        engine.process(proc("b", 2))
        engine.process(proc("a", 1))
        engine.run()
        assert log == [(1, "a"), (2, "b")]

    def test_wait_on_event_value(self, engine):
        event = engine.event()

        def waiter():
            value = yield event
            return value * 2

        process = engine.process(waiter())

        def firer():
            yield engine.timeout(1)
            event.succeed(21)

        engine.process(firer())
        assert engine.run(process) == 42

    def test_process_is_waitable_event(self, engine):
        def inner():
            yield engine.timeout(2)
            return "inner"

        def outer():
            result = yield engine.process(inner())
            return result + "-outer"

        assert engine.run(engine.process(outer())) == "inner-outer"

    def test_failed_event_raises_inside_process(self, engine):
        event = engine.event()

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                return f"caught:{exc}"

        process = engine.process(waiter())
        event.fail(RuntimeError("boom"))
        assert engine.run(process) == "caught:boom"

    def test_uncaught_exception_propagates(self, engine):
        def bad():
            yield engine.timeout(1)
            raise ValueError("kaput")

        process = engine.process(bad())
        with pytest.raises(ValueError, match="kaput"):
            engine.run(process)

    def test_yield_non_event_fails_process(self, engine):
        def bad():
            yield 42

        process = engine.process(bad())
        with pytest.raises(SimError):
            engine.run(process)

    def test_interrupt_delivers_cause(self, engine):
        def sleeper():
            try:
                yield engine.timeout(100)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause)

        process = engine.process(sleeper())

        def killer():
            yield engine.timeout(1)
            process.interrupt("reason")

        engine.process(killer())
        assert engine.run(process) == ("interrupted", "reason")
        assert engine.now == pytest.approx(1.0)

    def test_interrupt_finished_process_raises(self, engine):
        def quick():
            yield engine.timeout(0)

        process = engine.process(quick())
        engine.run(process)
        with pytest.raises(SimError):
            process.interrupt()

    def test_uncaught_interrupt_terminates_cleanly(self, engine):
        def sleeper():
            yield engine.timeout(100)

        process = engine.process(sleeper())

        def killer():
            yield engine.timeout(1)
            process.interrupt()

        engine.process(killer())
        engine.run(process)
        assert process.triggered

    def test_stale_wakeup_after_interrupt_is_ignored(self, engine):
        """The original timeout fires after an interrupt redirected the
        process; the late wakeup must not resume it twice."""
        log = []

        def sleeper():
            try:
                yield engine.timeout(5)
            except Interrupt:
                pass
            yield engine.timeout(10)
            log.append(engine.now)

        process = engine.process(sleeper())

        def killer():
            yield engine.timeout(1)
            process.interrupt()

        engine.process(killer())
        engine.run()
        assert log == [11]

    def test_is_alive(self, engine):
        def proc():
            yield engine.timeout(1)

        process = engine.process(proc())
        assert process.is_alive
        engine.run(process)
        assert not process.is_alive


class TestConditions:
    def test_all_of_collects_values(self, engine):
        t1 = engine.timeout(1, value="a")
        t2 = engine.timeout(2, value="b")
        values = engine.run(engine.all_of([t1, t2]))
        assert values == ["a", "b"]
        assert engine.now == 2

    def test_any_of_first_value(self, engine):
        t1 = engine.timeout(5, value="slow")
        t2 = engine.timeout(1, value="fast")
        value = engine.run(engine.any_of([t1, t2]))
        assert value == "fast"
        assert engine.now == 1

    def test_all_of_empty_is_immediate(self, engine):
        assert engine.run(engine.all_of([])) == []

    def test_any_of_with_already_triggered(self, engine):
        event = engine.event()
        event.succeed("now")
        assert engine.run(engine.any_of([event, engine.timeout(10)])) == "now"

    def test_late_child_after_anyof_triggered_is_harmless(self, engine):
        gate_event = engine.event()
        fast = engine.timeout(1)
        combined = engine.any_of([fast, gate_event])
        engine.run(combined)
        gate_event.succeed("late")
        engine.run()
        assert combined.ok


class TestEngine:
    def test_run_until_time(self, engine):
        engine.timeout(1)
        engine.timeout(10)
        engine.run(5.0)
        assert engine.now == 5.0

    def test_run_drains_everything(self, engine):
        engine.timeout(1)
        engine.timeout(2)
        engine.run()
        assert engine.now == 2

    def test_deadlock_detection(self, engine):
        event = engine.event()
        with pytest.raises(SimDeadlockError):
            engine.run(event)

    def test_fifo_order_at_same_instant(self, engine):
        log = []
        for name in "abc":
            engine.timeout(1).add_callback(lambda _e, n=name: log.append(n))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_schedule_into_past_rejected(self, engine):
        event = engine.event()
        with pytest.raises(ValueError):
            engine._schedule(event, delay=-0.5)

    @pytest.mark.parametrize("drain", ["until-time", "run-for"])
    def test_event_at_the_deadline_runs(self, engine, drain):
        fired = []
        for delay in (5.0, 6.0):
            engine.timeout(delay).add_callback(
                lambda _e: fired.append(engine.now))
        if drain == "until-time":
            engine.run(5.0)
        else:
            engine.run_for(5.0)
        assert fired == [5.0]
        assert engine.now == 5.0

    def test_deadline_before_now_processes_nothing(self, engine):
        engine.run(engine.timeout(5.0))
        fired = []
        engine.event().succeed().add_callback(lambda _e: fired.append("now"))
        engine.timeout(1.0).add_callback(lambda _e: fired.append("later"))
        engine.run(2.0)
        assert fired == []
        assert engine.now == 5.0

    def test_run_for_zero_drains_the_current_instant(self, engine):
        fired = []
        first = engine.timeout(1.0)
        engine.timeout(1.0).add_callback(lambda _e: fired.append("calendar"))
        engine.timeout(2.0).add_callback(lambda _e: fired.append("later"))
        engine.run(first)
        engine.event().succeed().add_callback(
            lambda _e: fired.append("immediate"))
        engine.run_for(0)
        assert fired == ["calendar", "immediate"]
        assert engine.now == 1.0

    def test_failed_stop_event_raises_its_exception(self, engine):
        event = engine.event()
        event.fail(KeyError("lost"), delay=1.0)
        with pytest.raises(KeyError):
            engine.run(event)
        assert engine.now == 1.0

    def test_stop_event_that_never_fires_drains_then_deadlocks(self, engine):
        fired = []
        engine.timeout(1.0).add_callback(lambda _e: fired.append(engine.now))
        with pytest.raises(SimDeadlockError):
            engine.run(engine.event())
        assert fired == [1.0]
