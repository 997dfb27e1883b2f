"""Same-instant phase-drain ordering: the golden contracts.

Events scheduled for the *same* tick instant drain in :class:`Phase`
order — ``COMPLETE < WAKE < LAUNCH < TRACE`` — and FIFO within a phase.
Interleave jitter may shuffle ties only *inside* a phase; the phase
boundary itself is part of the integer queue key and is never crossed.
"""

import random

import pytest

from repro.sim.core import Engine, Event, Phase, SimError


class CompleteEvent(Event):
    phase = Phase.COMPLETE


class LaunchEvent(Event):
    phase = Phase.LAUNCH


class TraceEvent(Event):
    phase = Phase.TRACE


_KINDS = {
    "C": CompleteEvent,
    "W": Event,  # default phase is WAKE
    "L": LaunchEvent,
    "T": TraceEvent,
}


def _drain_order(engine, spec, delay):
    """Trigger one event per ``spec`` entry (kind letter + index), all at
    the same instant, and return the order their callbacks ran."""
    order = []
    for label in spec:
        event = _KINDS[label[0]](engine, name=label)
        event.add_callback(lambda e: order.append(e.name))
        event.succeed(delay=delay)
    engine.run()
    return order


class TestGoldenDrainOrder:
    # deliberately interleaved creation order
    SPEC = ["T0", "W0", "L0", "C0", "W1", "T1", "C1", "L1", "W2", "C2"]
    GOLDEN = ["C0", "C1", "C2", "W0", "W1", "W2", "L0", "L1", "T0", "T1"]

    def test_future_instant_drains_complete_wake_launch_trace(self):
        assert _drain_order(Engine(), self.SPEC, delay=5e-6) == self.GOLDEN

    def test_current_instant_drains_in_phase_order(self):
        """delay=0 routes WAKE events through the immediate FIFO and the
        other phases through the calendar; the merged drain must still
        respect the phase order and FIFO within each phase."""
        assert _drain_order(Engine(), self.SPEC, delay=0.0) == self.GOLDEN

    def test_distinct_instants_trump_phases(self):
        """A TRACE event at an earlier tick precedes a COMPLETE event at
        a later tick: phases order only *same-instant* ties."""
        engine = Engine()
        order = []
        late = CompleteEvent(engine, name="late-complete")
        late.add_callback(lambda e: order.append(e.name))
        late.succeed(delay=2e-6)
        early = TraceEvent(engine, name="early-trace")
        early.add_callback(lambda e: order.append(e.name))
        early.succeed(delay=1e-6)
        engine.run()
        assert order == ["early-trace", "late-complete"]


class TestJitterStaysWithinPhase:
    SPEC = ["C0", "C1", "C2", "W0", "W1", "W2", "W3",
            "L0", "L1", "T0", "T1", "T2"]

    def test_phase_blocks_survive_any_jitter_seed(self):
        for seed in range(50):
            engine = Engine()
            engine.set_interleave_jitter(random.Random(seed))
            order = _drain_order(engine, self.SPEC, delay=3e-6)
            kinds = [label[0] for label in order]
            # contiguous phase blocks, in ascending phase order
            assert kinds == (["C"] * 3 + ["W"] * 4 + ["L"] * 2 + ["T"] * 3)
            assert sorted(order) == sorted(self.SPEC)

    def test_some_seed_shuffles_within_a_phase(self):
        """Jitter must actually perturb same-phase ties (otherwise the
        fuzzer's interleave axis is dead)."""
        shuffled = False
        for seed in range(50):
            engine = Engine()
            engine.set_interleave_jitter(random.Random(seed))
            order = _drain_order(engine, self.SPEC, delay=3e-6)
            if [o for o in order if o[0] == "W"] != ["W0", "W1", "W2", "W3"]:
                shuffled = True
                break
        assert shuffled

    def test_jitter_seed_is_deterministic(self):
        runs = []
        for _ in range(2):
            engine = Engine()
            engine.set_interleave_jitter(random.Random(1234))
            runs.append(_drain_order(engine, self.SPEC, delay=3e-6))
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
            runs.append(_drain_order(engine, self.SPEC, delay=3e-6))
        assert runs[0] == runs[1]
        assert runs[0] != self.SPEC


#: drains the scenario of :class:`TestJitteredDrainOrder`; ``stop`` is a
#: timeout one microsecond after the shared instant
_DRAINS = {
    "run": lambda engine, stop: engine.run(),
    "until-event": lambda engine, stop: engine.run(stop),
    "until-time": lambda engine, stop: engine.run(3e-6),
}


class TestJitteredDrainOrder:
    """Pinned same-instant orders, the same through all three drain loops.

    Events reach one instant two ways: scheduled earlier with a delay
    (``C0``, ``W0``-``W3``, ``L0`` and ``X``), and as zero-delay wakeups
    (``Z0``-``Z2`` and the LAUNCH ``L1``) that ``X``'s callback schedules
    at that instant.  Without jitter the zero-delay wakeups queue behind
    the instant's delayed WAKE events; under jitter they draw their ties
    when pushed and interleave with the delayed events still waiting."""

    GOLDEN = {
        None: ["C0", "X", "W0", "W1", "W2", "W3", "Z0", "Z1", "Z2",
               "L0", "L1"],
        5: ["C0", "W3", "X", "Z1", "W0", "Z2", "W2", "W1", "Z0",
            "L1", "L0"],
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
            for label in ("Z0", "Z1", "Z2", "L1"):
                woken = (LaunchEvent if label == "L1" else Event)(
                    engine, name=label)
                woken.add_callback(log)
                woken.succeed()

        waker = Event(engine, name="X")
        waker.add_callback(wake)
        waker.succeed(delay=3e-6)
        for label in ("W0", "C0", "W1", "L0", "W2", "W3"):
            event = _KINDS[label[0]](engine, name=label)
            event.add_callback(log)
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
        faults and corruption) must stay violation-free on the
        phase-ordered queue."""
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
        "subkernel_launch", "cmd_start", "cmd_end", "alloc_begin",
        "alloc_end", "cmd_start", "cmd_end", "cmd_start", "status_delivery",
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
