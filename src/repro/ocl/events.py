"""Command events with OpenCL-style profiling timestamps."""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.ocl.enums import CommandStatus, CommandType
from repro.sim.core import Engine, Event

__all__ = ["CLEvent"]

_event_ids = itertools.count(1)


class CLEvent:
    """Tracks one enqueued command's lifecycle (cf. ``cl_event``).

    Exposes ``queued`` / ``started`` / ``finished`` simulated timestamps
    (``CL_PROFILING_COMMAND_*``) and a :attr:`done` simulation event host
    code or other processes can wait on.
    """

    __slots__ = ("id", "command_type", "status", "queued", "started",
                 "finished", "done", "result", "error")

    def __init__(self, engine: Engine, command_type: CommandType):
        self.id = next(_event_ids)
        self.command_type = command_type
        self.status = CommandStatus.QUEUED
        self.queued = engine.now
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        # unnamed on purpose: one f-string per command shows up in profiles
        self.done: Event = Event(engine)
        #: command-specific result (e.g. kernel execution summary)
        self.result: Any = None
        #: the error that cancelled this command, if any
        self.error: Optional[BaseException] = None

    def mark_started(self, now: float) -> None:
        self.status = CommandStatus.RUNNING
        self.started = now

    def mark_finished(self, now: float, result: Any = None) -> None:
        self.status = CommandStatus.COMPLETE
        self.finished = now
        self.result = result
        self.done.succeed(self)

    def mark_cancelled(self, now: float, error: BaseException = None) -> None:
        """The command's device died; fire :attr:`done` anyway so waiters
        never hang, but record cancellation instead of a result."""
        self.status = CommandStatus.CANCELLED
        self.finished = now
        self.error = error
        self.done.succeed(self)

    @property
    def is_complete(self) -> bool:
        return self.status is CommandStatus.COMPLETE

    @property
    def cancelled(self) -> bool:
        return self.status is CommandStatus.CANCELLED

    @property
    def duration(self) -> float:
        """Execution time (started -> finished), once complete."""
        if self.started is None or self.finished is None:
            raise RuntimeError("duration read before completion")
        return self.finished - self.started

    @property
    def latency(self) -> float:
        """Queue-to-completion time, once complete."""
        if self.finished is None:
            raise RuntimeError("latency read before completion")
        return self.finished - self.queued

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CLEvent {self.id} {self.command_type} {self.status}>"
