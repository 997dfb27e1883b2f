"""Core of the discrete-event engine: clock, events and processes.

Simulated time is an **integer** — fixed-point microseconds, see
:mod:`repro.sim.timebase` — and the queue is keyed by that tick instant
alone: events at one instant drain FIFO, in schedule order, or by a
seeded tie under interleave jitter.  ``Engine.now`` stays a float
property for every consumer; the float is derived from the integer clock
at read time and cached, so no float arithmetic ever advances the clock.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.timebase import (
    NEGATIVE_SLACK_SECONDS,
    delay_to_ticks,
    from_ticks,
    to_ticks,
)

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "SimError",
    "SimDeadlockError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Engine",
]


class SimError(Exception):
    """Base class for simulation errors."""


class SimDeadlockError(SimError):
    """Raised when the engine is asked to run to an event that can never fire."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, at which point the engine schedules it and, when
    its turn comes, runs all registered callbacks (waking any process that
    yielded on it).
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        # The callback list is allocated lazily on first registration:
        # high-volume events (timeouts) typically receive exactly one
        # callback or none at all.
        self.callbacks: Optional[list] = None
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.name = name

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given an outcome."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (waiters have been woken)."""
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError(f"value of {self!r} read before trigger")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful, carrying ``value``."""
        self._trigger(value, ok=True, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiters get ``exception`` thrown into them."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(exception, ok=False, delay=delay)
        return self

    def _trigger(self, value: Any, ok: bool, delay: float = 0.0) -> None:
        if self._triggered:
            raise SimError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        self._ok = ok
        self.engine._schedule(self, delay)

    # -- callbacks ----------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (same simulated instant).
        """
        if self._processed:
            fn(self)
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Remove one registered occurrence of ``fn``; no-op if absent.

        Long-lived events accumulate callbacks from every waiter that ever
        registered on them; waiters that stop caring (e.g. a condition that
        already resolved via another child) must detach, or the event's
        callback list grows without bound.
        """
        callbacks = self.callbacks
        if callbacks is not None:
            try:
                callbacks.remove(fn)
            except ValueError:
                pass

    def _process(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future."""

    __slots__ = ("_delay",)

    # Timeouts are born triggered, are never re-triggered and never carry a
    # per-instance name: those three fields live as class attributes that
    # shadow the parent slots, so __init__ skips the stores entirely.
    name = ""
    _ok = True
    _triggered = True

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        # The engine's highest-volume allocation: fields are stored directly
        # (no super().__init__ chain), the queue push is inlined, and
        # delay->tick conversions are memoized on the engine.
        self.engine = engine
        self.callbacks = None
        self._value = value
        self._processed = False
        self._delay = delay
        if delay:
            if delay < 0:
                if delay < -NEGATIVE_SLACK_SECONDS:
                    raise ValueError(f"negative timeout delay: {delay}")
                dt = 0
            else:
                cache = engine._tick_cache
                dt = cache.get(delay)
                if dt is None:
                    dt = to_ticks(delay)
                    if len(cache) < 4096:
                        cache[delay] = dt
        else:
            dt = 0
        if dt:
            key = engine._now_ticks + dt
            buckets = engine._buckets
            bucket = buckets.get(key)
            if bucket is None:
                free = engine._bucket_free
                bucket = free.pop() if free else engine._new_bucket()
                buckets[key] = bucket
                _heappush(engine._bucket_keys, key)
            bucket.append(self)
        else:
            engine._imm.append(self)

    @classmethod
    def _at_ticks(cls, engine: "Engine", delay_ticks: int,
                  value: Any = None) -> "Timeout":
        """A timeout with an exact integer-tick delay (no float boundary)."""
        if delay_ticks < 0:
            raise ValueError(f"negative timeout delay: {delay_ticks} ticks")
        self = cls.__new__(cls)
        self.engine = engine
        self.callbacks = None
        self._value = value
        self._processed = False
        self._delay = from_ticks(delay_ticks)
        engine._push(engine._now_ticks + delay_ticks, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Timeout timeout({self._delay:g}) {state}>"


class Process(Event):
    """Runs a generator; the process-as-event triggers when the generator ends.

    Inside the generator, ``yield event`` suspends the process until the
    event triggers; the yield expression evaluates to the event's value.
    A failed event raises its exception at the yield point.
    """

    __slots__ = ("_generator", "_waiting_on", "_interrupts", "_resume_cb")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupts: list = []
        #: the one bound wakeup callback this process ever registers —
        #: binding it once avoids a bound-method allocation per yield
        self._resume_cb = self._resume
        # Kick off at the current instant.
        bootstrap = Event(engine, name=f"init:{self.name}")
        bootstrap.add_callback(self._resume_cb)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            raise SimError(f"cannot interrupt finished process {self.name!r}")
        self._interrupts.append(Interrupt(cause))
        wakeup = Event(self.engine, name=f"interrupt:{self.name}")
        wakeup.add_callback(self._deliver_interrupt)
        wakeup.succeed()

    def _deliver_interrupt(self, _event: Event) -> None:
        if self._triggered or not self._interrupts:
            return
        exc = self._interrupts.pop(0)
        # Detach from whatever we were waiting on; the stale callback is
        # filtered by the _waiting_on check in _resume.
        self._step(exc, throw=True)

    def _resume(self, event: Event) -> None:
        # The engine's hottest callback: one call per process wakeup.  The
        # generator send and callback registration are inlined (events
        # reaching _process are always triggered, so the slot reads are
        # safe); the interrupt path stays on the slower _step.
        if self._triggered:
            return
        if self._waiting_on is not None and event is not self._waiting_on:
            return  # stale wakeup (e.g. we were interrupted meanwhile)
        self._waiting_on = None
        if not event._ok:
            self._step(event._value, throw=True)
            return
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            self._finish(stop.value, ok=True)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self._finish(exc, ok=False)
            return
        if not isinstance(target, Event):
            self._finish(
                SimError(f"process {self.name!r} yielded non-event {target!r}"),
                ok=False,
            )
            return
        self._waiting_on = target
        if target._processed:
            self._resume(target)
        elif target.callbacks is None:
            target.callbacks = [self._resume_cb]
        else:
            target.callbacks.append(self._resume_cb)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value, ok=True)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self._finish(exc, ok=False)
            return
        if not isinstance(target, Event):
            self._finish(
                SimError(f"process {self.name!r} yielded non-event {target!r}"),
                ok=False,
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume_cb)

    def _finish(self, value: Any, ok: bool) -> None:
        self._generator = None
        if ok:
            self.succeed(value)
        else:
            if isinstance(value, Interrupt):
                # An uncaught interrupt terminates the process cleanly.
                self.succeed(None)
            else:
                self.fail(value)
                if not self.callbacks and not self.engine.allow_orphan_failures:
                    raise value


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_pending")

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str):
        super().__init__(engine, name=name)
        self._events = list(events)
        self._pending = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._child_done)
            if self._triggered:
                # An already-processed child resolved us mid-registration
                # (immediate callback); the remaining children must not be
                # registered on at all.
                break

    def _child_done(self, event: Event) -> None:
        raise NotImplementedError

    def _detach_pending(self) -> None:
        """Drop ``_child_done`` from children that have not yet run callbacks.

        Once the condition has resolved, registrations left on still-pending
        children are dead weight: §5.3-style wait loops (``any_of([gate.wait(),
        gpu_done])`` against a long-lived ``gpu_done``) would otherwise grow
        that event's callback list by one entry per iteration.
        """
        for event in self._events:
            if not event._processed:
                event.remove_callback(self._child_done)

    def _collect(self) -> list:
        return [e.value for e in self._events if e.triggered and e.ok]


class AnyOf(_Condition):
    """Triggers as soon as any child event does."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, events, name="any_of")

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(event.value)
        self._detach_pending()


class AllOf(_Condition):
    """Triggers when all child events have; value is the list of child values."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, events, name="all_of")

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            self._detach_pending()
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class _TieBucket(list):
    """A calendar bucket under interleave jitter: a heap of
    ``(tie, seq, event)`` entries.

    :meth:`append` draws the event's seeded tie when it is pushed and
    :meth:`popleft` returns the event with the least ``(tie, seq)``: the
    same two calls the engine makes on a FIFO bucket, so the drain loop
    keeps one pop path.
    """

    __slots__ = ("_draw", "_seq")

    def __init__(self, draw: Callable[[], float], seq: Callable[[], int]):
        self._draw = draw
        self._seq = seq

    def append(self, event: Event) -> None:
        _heappush(self, (self._draw(), self._seq(), event))

    def popleft(self) -> Event:
        return _heappop(self)[2]


class _JitterLane(list):
    """The immediate lane under interleave jitter.

    It files each zero-delay wakeup into the current instant's bucket,
    where the wakeup draws its tie like every other push, and so stays
    empty: the drain loop's ``if imm`` test never takes it.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: "Engine"):
        self._engine = engine

    def append(self, event: Event) -> None:
        engine = self._engine
        engine._file(engine._now_ticks, event)


class Engine:
    """The event loop: a *calendar* keyed by the integer tick instant.

    The calendar is a dict of per-instant buckets plus a small heap of the
    distinct instants, and an *immediate lane* for events at the current
    instant (the zero-delay hot path).  Pushes and pops are O(1) in the
    common case instead of O(log n) tuple-compare heap operations.  A
    bucket is a FIFO deque, so schedule order within an instant is
    structural; interleave jitter swaps in seeded-tie buckets and a lane
    that files into them (:meth:`set_interleave_jitter`).  One drain loop
    (:meth:`_drain`) serves :meth:`run` and :meth:`run_for`.
    """

    def __init__(self, tracer=None):
        #: integer clock, fixed-point microseconds (:mod:`repro.sim.timebase`)
        self._now_ticks: int = 0
        #: cached float view of the clock; None when stale
        self._now_f: Optional[float] = 0.0
        #: events at the *current* instant: the succeed()/zero-delay fast
        #: lane (push = append, pop = popleft)
        self._imm = deque()
        #: tick instant -> bucket of events, FIFO within the instant
        self._buckets: dict = {}
        #: min-heap of the distinct instants present in ``_buckets``
        self._bucket_keys: list = []
        #: retired buckets, reused to avoid per-bucket allocation
        self._bucket_free: list = []
        #: factory for a new, empty bucket
        self._new_bucket: Callable[[], Any] = deque
        #: memoized float-delay -> tick conversions (bounded; delays repeat)
        self._tick_cache: dict = {}
        self.tracer = tracer
        #: if True, a process failing with no observers does not raise
        #: immediately (useful in tests that assert on failure later).
        self.allow_orphan_failures = False
        # Instance-attribute binding skips one Python frame per call on the
        # hottest factory (class-level ``timeout`` remains as the API doc).
        self.timeout = functools.partial(Timeout, self)

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds (derived from the tick clock)."""
        f = self._now_f
        if f is None:
            f = self._now_f = from_ticks(self._now_ticks)
        return f

    @property
    def now_ticks(self) -> int:
        """Current simulated time in integer ticks (exact)."""
        return self._now_ticks

    def delay_ticks(self, delay: float) -> int:
        """Exact tick count of a float delay (memoized; clamps float noise)."""
        cache = self._tick_cache
        dt = cache.get(delay)
        if dt is None:
            dt = delay_to_ticks(delay)
            if len(cache) < 4096:
                cache[delay] = dt
        return dt

    # -- factory helpers ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_ticks(self, delay_ticks: int, value: Any = None) -> Timeout:
        """A timeout with an exact integer-tick delay (no float boundary)."""
        return Timeout._at_ticks(self, delay_ticks, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def set_interleave_jitter(self, rng) -> None:
        """Install a seeded RNG (``random.Random``) that randomizes the
        processing order of *same-instant* events.

        Without jitter, simultaneous events process in schedule (FIFO)
        order — one fixed interleaving out of the many a real multi-queue
        OpenCL runtime could exhibit.  The jitter draws a tie-break key per
        scheduled event, exploring alternative-but-legal interleavings
        deterministically (same seed, same order).  Event *times* are never
        perturbed: the tie-break only reorders events within one instant's
        bucket, and zero-delay wakeups join the current instant's bucket to
        draw theirs.

        Install it before anything is scheduled: the tie is drawn when an
        event is pushed, so an already-queued event has none, and a
        :class:`SimError` is raised while any event is pending.
        """
        if self._imm or self._bucket_keys:
            raise SimError(
                "set_interleave_jitter needs an engine with no pending "
                "events; install it before scheduling")
        self._new_bucket = functools.partial(
            _TieBucket, rng.random, itertools.count().__next__)
        self._bucket_free.clear()  # retired FIFO deques would draw no tie
        self._imm = _JitterLane(self)

    def _push(self, ticks: int, event: Event) -> None:
        """Enqueue ``event`` at the tick instant ``ticks``."""
        if ticks == self._now_ticks:
            self._imm.append(event)
        else:
            self._file(ticks, event)

    def _file(self, ticks: int, event: Event) -> None:
        """File ``event`` into the calendar bucket for instant ``ticks``."""
        buckets = self._buckets
        bucket = buckets.get(ticks)
        if bucket is None:
            free = self._bucket_free
            bucket = free.pop() if free else self._new_bucket()
            buckets[ticks] = bucket
            _heappush(self._bucket_keys, ticks)
        bucket.append(event)

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        ticks = self._now_ticks
        if delay:
            ticks += self.delay_ticks(delay)
        self._push(ticks, event)

    # -- running ------------------------------------------------------------
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until the clock reaches it), or an :class:`Event` (run until it
        triggers; returns its value, raising if it failed).
        """
        if until is None:
            self._drain()
        elif isinstance(until, Event):
            self._drain(stop=until)
            if not until.ok:
                raise until.value
            return until.value
        else:
            self._drain(deadline=to_ticks(float(until)))
        return None

    def run_for(self, delay: float) -> None:
        """Run until ``delay`` seconds from now (exact tick arithmetic)."""
        self._drain(deadline=self._now_ticks + self.delay_ticks(delay))

    def _drain(self, stop: Optional[Event] = None,
               deadline: Optional[int] = None) -> None:
        """The one drain loop: process events in instant order.

        It returns once ``stop`` has been processed, or when the next
        event lies past the ``deadline`` tick (events at the deadline
        instant still run; a deadline before ``now`` processes nothing),
        or when the queue is empty, which raises :class:`SimDeadlockError`
        if a ``stop`` event was given.  A deadline run then moves the
        clock up to the deadline.

        The queue pop is inlined (no per-event method dispatch): at
        hundreds of thousands of events per run, the dispatch overhead
        dominated the harness profile.  The float view of the clock is
        invalidated only when the tick instant actually changes.  When the
        calendar holds events at the current instant too, its bucket
        drains before the immediate lane: its events were scheduled
        earlier.
        """
        if stop is not None and stop._processed:
            return
        if deadline is not None and deadline < self._now_ticks:
            return
        buckets = self._buckets
        keys = self._bucket_keys
        free = self._bucket_free
        imm = self._imm
        pop_key = _heappop
        while True:
            if imm and (not keys or keys[0] > self._now_ticks):
                event = imm.popleft()
            elif keys:
                ticks = keys[0]
                if deadline is not None and ticks > deadline:
                    break
                if ticks != self._now_ticks:
                    self._now_ticks = ticks
                    self._now_f = None
                bucket = buckets[ticks]
                event = bucket.popleft()
                if not bucket:
                    pop_key(keys)
                    del buckets[ticks]
                    free.append(bucket)
            elif stop is None:
                break
            else:
                raise SimDeadlockError(
                    f"deadlock: ran out of events before {stop!r} triggered"
                )
            event._process()
            if event is stop:
                return
        if deadline is not None and deadline > self._now_ticks:
            self._now_ticks = deadline
            self._now_f = None

    # -- tracing --------------------------------------------------------------
    def trace(self, category: str, **payload: Any) -> None:
        if self.tracer is not None:
            self.tracer.record(self.now, category, payload)
