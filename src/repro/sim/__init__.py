"""Discrete-event simulation engine.

This package is the foundation of the whole reproduction: devices, DMA
engines, command queues and FluidiCL's host-side threads are all simulated
processes (generator coroutines) scheduled by :class:`~repro.sim.core.Engine`
on a virtual clock.

The design follows the classic event/process style (as popularized by SimPy),
implemented from scratch so the repository is self-contained:

* :class:`~repro.sim.core.Event` — one-shot occurrence carrying a value.
* :class:`~repro.sim.core.Process` — a generator that ``yield``\\ s events to
  suspend until they trigger.
* :class:`~repro.sim.resources.Resource` — counted resource (e.g. a DMA
  engine has capacity 1, a CPU has one slot per hardware thread).
* :class:`~repro.sim.resources.Channel` — FIFO mailbox between processes.
* :class:`~repro.sim.sync.Gate` — broadcast condition: :meth:`fire` wakes
  every current waiter.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimDeadlockError,
    SimError,
    Timeout,
)
from repro.sim.resources import Channel, Resource
from repro.sim.sync import Gate, Latch
from repro.sim.timebase import from_ticks, is_us_aligned, to_ticks

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Engine",
    "Event",
    "Gate",
    "Interrupt",
    "Latch",
    "Process",
    "Resource",
    "SimDeadlockError",
    "SimError",
    "Timeout",
    "from_ticks",
    "is_us_aligned",
    "to_ticks",
]
