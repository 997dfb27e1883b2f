"""Broadcast synchronization primitives built on the core engine."""

from __future__ import annotations

from typing import Any, List

from repro.sim.core import Engine, Event

__all__ = ["Gate", "Latch"]


class Gate:
    """A broadcast condition variable: each :meth:`fire` wakes every
    current waiter with the fired value (how the GPU executor observes CPU
    status updates without busy-waiting)."""

    def __init__(self, engine: Engine, name: str = "gate"):
        self.engine = engine
        self.name = name
        self._waiters: List[Event] = []

    def fire(self, value: Any) -> None:
        """Wake all waiters with ``value``."""
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)

    def wait(self) -> Event:
        """Event triggering on the next :meth:`fire`."""
        event = Event(self.engine, name=f"wait:{self.name}")
        self._waiters.append(event)
        return event


class Latch:
    """Counts down from ``count``; the :attr:`done` event fires at zero."""

    def __init__(self, engine: Engine, count: int, name: str = "latch"):
        if count < 0:
            raise ValueError("latch count must be >= 0")
        self.engine = engine
        self.name = name
        self.remaining = count
        self.done = Event(engine, name=f"done:{name}")
        if count == 0:
            self.done.succeed()

    def count_down(self, n: int = 1) -> None:
        if self.remaining <= 0:
            return
        self.remaining -= n
        if self.remaining <= 0:
            self.done.succeed()
