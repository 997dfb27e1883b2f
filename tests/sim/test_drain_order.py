"""Same-instant drain order: the golden contracts.

The queue is keyed by the tick instant alone.  Events scheduled for one
instant drain FIFO, in schedule order; interleave jitter may shuffle them
only *inside* that instant, never across instants.  The one drain loop
behind ``run()``, ``run(until=event)``, ``run(until=time)`` and
``run_for`` gives the same order through all four.
"""

import random

import pytest

from repro.sim.core import Engine, Event, SimError


def _drain_order(engine, spec):
    """Trigger one event per ``(label, delay)`` entry and return the order
    their callbacks ran."""
    order = []
    for label, delay in spec:
        event = Event(engine, name=label)
        event.add_callback(lambda e: order.append(e.name))
        event.succeed(delay=delay)
    engine.run()
    return order


class TestJitterStaysWithinInstant:
    #: three instants, created interleaved; labels name their instant
    SPEC = [("b0", 2e-6), ("a0", 1e-6), ("c0", 3e-6), ("b1", 2e-6),
            ("a1", 1e-6), ("b2", 2e-6), ("c1", 3e-6), ("a2", 1e-6),
            ("b3", 2e-6), ("c2", 3e-6), ("a3", 1e-6), ("c3", 3e-6)]
    FIFO = ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3",
            "c0", "c1", "c2", "c3"]

    def test_fifo_within_each_instant(self):
        assert _drain_order(Engine(), self.SPEC) == self.FIFO

    def test_instant_blocks_survive_any_jitter_seed(self):
        for seed in range(50):
            engine = Engine()
            engine.set_interleave_jitter(random.Random(seed))
            order = _drain_order(engine, self.SPEC)
            # contiguous instant blocks, in time order
            assert [label[0] for label in order] == [
                label[0] for label in self.FIFO]
            assert sorted(order) == self.FIFO

    def test_some_seed_shuffles_within_an_instant(self):
        """Jitter must actually perturb same-instant ties (otherwise the
        fuzzer's interleave axis is dead)."""
        shuffled = False
        for seed in range(50):
            engine = Engine()
            engine.set_interleave_jitter(random.Random(seed))
            if _drain_order(engine, self.SPEC) != self.FIFO:
                shuffled = True
                break
        assert shuffled

    def test_jitter_seed_is_deterministic(self):
        runs = []
        for _ in range(2):
            engine = Engine()
            engine.set_interleave_jitter(random.Random(1234))
            runs.append(_drain_order(engine, self.SPEC))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("pending", ["delayed", "zero-delay"])
    def test_install_needs_an_empty_queue(self, pending):
        """Jitter draws its ties at push time, so an event already queued
        has none: installing over it must fail, not drop or misorder it."""
        engine = Engine()
        Event(engine).succeed(delay=1e-6 if pending == "delayed" else 0.0)
        with pytest.raises(SimError):
            engine.set_interleave_jitter(random.Random(0))

    def test_install_after_a_drained_run_matches_a_fresh_engine(self):
        """Buckets retired by an earlier FIFO run are not reused as
        unjittered buckets: the seed alone decides the order."""
        runs = []
        for warmup in (False, True):
            engine = Engine()
            if warmup:
                engine.timeout(1e-6)
                engine.run()
            engine.set_interleave_jitter(random.Random(5))
            runs.append(_drain_order(engine, self.SPEC))
        assert runs[0] == runs[1]
        assert runs[0] != self.FIFO


#: drains the scenario of :class:`TestJitteredDrainOrder`; ``stop`` is a
#: timeout one microsecond after the shared instant
_DRAINS = {
    "run": lambda engine, stop: engine.run(),
    "until-event": lambda engine, stop: engine.run(stop),
    "until-time": lambda engine, stop: engine.run(3e-6),
    "run-for": lambda engine, stop: engine.run_for(3e-6),
}


class TestJitteredDrainOrder:
    """Pinned same-instant orders, the same through all four entry points.

    Events reach one instant two ways: scheduled earlier with a delay
    (``W0``-``W5`` and ``X``), and as zero-delay wakeups (``Z0``-``Z3``)
    that ``X``'s callback schedules at that instant.  Without jitter the
    zero-delay wakeups queue behind the instant's delayed events; under
    jitter they draw their ties when pushed and interleave with the
    delayed events still waiting."""

    GOLDEN = {
        None: ["W0", "W1", "X", "W2", "W3", "W4", "W5",
               "Z0", "Z1", "Z2", "Z3"],
        5: ["W5", "W0", "W3", "W1", "X", "Z3", "Z1", "Z2", "W4", "W2",
            "Z0"],
    }

    @staticmethod
    def _order(seed, drain):
        engine = Engine()
        if seed is not None:
            engine.set_interleave_jitter(random.Random(seed))
        order = []

        def log(event):
            order.append(event.name)

        def wake(event):
            log(event)
            for label in ("Z0", "Z1", "Z2", "Z3"):
                woken = Event(engine, name=label)
                woken.add_callback(log)
                woken.succeed()

        for label in ("W0", "W1", "X", "W2", "W3", "W4", "W5"):
            event = Event(engine, name=label)
            event.add_callback(wake if label == "X" else log)
            event.succeed(delay=3e-6)
        stop = engine.timeout(4e-6)
        _DRAINS[drain](engine, stop)
        return order

    @pytest.mark.parametrize("drain", sorted(_DRAINS))
    @pytest.mark.parametrize("seed", [None, 5], ids=["fifo", "jitter-5"])
    def test_order_matches_golden(self, seed, drain):
        assert self._order(seed, drain) == self.GOLDEN[seed]


class TestFuzzerAxis:
    def test_25_seeds_zero_violations(self):
        """The schedule-space fuzzer (which exercises jittered drains,
        faults and corruption) must stay violation-free."""
        from repro.check.fuzzer import ScheduleFuzzer, run_config

        fuzzer = ScheduleFuzzer()
        for seed in range(25):
            result = run_config(fuzzer.config(seed))
            assert not result.violations, (
                f"seed {seed} violations: {result.violations}"
            )


class TestTwoDeviceGoldenOrder:
    """The observable two-device event order for a pinned small run.

    This is the cross-layer golden: if a queue change reorders
    same-instant events (or quantization moves a microsecond-aligned
    instant), the traced category sequence or the aligned subset shifts
    and this test fails."""

    GOLDEN_CATEGORIES = [
        "buffer_write", "cmd_start", "cmd_start", "buffer_write", "cmd_end",
        "cmd_start", "buffer_write", "kernel_begin", "alloc_begin", "cmd_end",
        "cmd_start", "cmd_end", "cmd_end", "cmd_start", "cmd_end", "cmd_start",
        "cmd_end", "alloc_end", "cmd_start", "cmd_end", "cmd_start",
        "subkernel_launch", "alloc_begin", "cmd_start", "alloc_end",
        "cmd_end", "cmd_start", "cmd_end", "cmd_start", "status_delivery",
        "cmd_end", "cmd_end", "commit", "kernel_end",
        "cmd_start", "cmd_end", "buffer_read", "cmd_start", "cmd_end",
        "cmd_start", "cmd_end", "cmd_start", "cmd_end", "cmd_start", "cmd_end",
        "cmd_start", "cmd_end", "cmd_start", "cmd_end", "cmd_start", "cmd_end",
    ]
    #: the subset of events that land on exact-microsecond instants
    GOLDEN_ALIGNED = ["buffer_write", "kernel_begin", "alloc_begin"]

    def _run(self):
        from repro.core.config import FluidiCLConfig
        from repro.core.runtime import FluidiCLRuntime
        from repro.hw.machine import build_machine
        from repro.polybench.suite import make_app

        machine = build_machine(trace=True)
        config = FluidiCLConfig(initial_chunk_fraction=0.25,
                                chunk_step_fraction=0.0)
        runtime = FluidiCLRuntime(machine, config=config)
        app = make_app("gesummv", "test", size=64)
        app.execute(runtime, check=True)
        runtime.drain()
        return machine

    def test_category_sequence_matches_golden(self):
        machine = self._run()
        assert ([e.category for e in machine.tracer.events]
                == self.GOLDEN_CATEGORIES)

    def test_us_aligned_subset_matches_golden(self):
        from repro.sim.timebase import is_us_aligned

        machine = self._run()
        aligned = [e.category for e in machine.tracer.events
                   if is_us_aligned(e.ts)]
        assert aligned == self.GOLDEN_ALIGNED

    def test_trace_times_are_monotonic(self):
        machine = self._run()
        times = [e.ts for e in machine.tracer.events]
        assert all(a <= b for a, b in zip(times, times[1:]))
