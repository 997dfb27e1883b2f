"""The typed event taxonomy of the FluidiCL observability layer.

Every instrumented layer (runtime, scheduler, command queues, buffer pool,
dh-thread) emits :class:`TraceEvent` objects through one recorder.  The
taxonomy mirrors the moving parts of the paper's design:

================  ======================================================
kind              meaning
================  ======================================================
``command``       one queue command executing (begin/end per queue)
``kernel``        one cooperative ``clEnqueueNDRangeKernel`` call (§4.2)
``subkernel``     one CPU subkernel launch over a flattened window (§5.1)
``status``        a CPU-completion status message delivered to the GPU
``merge``         a diff+merge kernel enqueued for one out-buffer (§4.2),
                  or an anchor abort declined because the merges it adds
                  cost more than it saves (``abort_declined``)
``refresh``       a stale device copy refreshed from a current one before
                  a launch (§6.2), with the refreshed ``device``
``dh_readback``   the background device-to-host thread of one kernel
                  (§5.6): begin at spawn, end when every out-buffer's
                  read-back was delivered to the workers or discarded
``stale_discard`` late data discarded by version tracking (§5.3)
``pool``          helper-buffer pool traffic (§6.1): a helper carved from
                  an idle allocation is a ``hit`` instant, a device
                  allocation an ``alloc`` span on the track of the thread
                  it blocks (``runtime`` or a worker's scheduler)
``buffer_write``  a host ``clEnqueueWriteBuffer`` committing a new version
``buffer_read``   a host ``clEnqueueReadBuffer`` with its source device
``commit``        a kernel committing its out-buffers, with its ``path``
``fault``         an injected fault striking, or a transfer being retried
``failover``      the watchdog degrading a device / the runtime completing
                  a kernel on the surviving device
``lint``          a static-analyzer finding surfaced by the runtime lint
                  gate before a cooperative launch (repro.analysis)
``job``           one serving-layer job's lifecycle (:mod:`repro.serve`):
                  submitted, admitted or shed, started, done
``generic``       anything else routed through the engine tracer
================  ======================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

__all__ = ["EventKind", "Phase", "TraceEvent", "EventSpan", "pair_spans"]


class EventKind(str, enum.Enum):
    """What a :class:`TraceEvent` describes."""

    COMMAND = "command"
    KERNEL = "kernel"
    SUBKERNEL = "subkernel"
    STATUS = "status"
    MERGE = "merge"
    REFRESH = "refresh"
    DH_READBACK = "dh_readback"
    STALE_DISCARD = "stale_discard"
    POOL = "pool"
    BUFFER_WRITE = "buffer_write"
    BUFFER_READ = "buffer_read"
    COMMIT = "commit"
    FAULT = "fault"
    FAILOVER = "failover"
    LINT = "lint"
    JOB = "job"
    GENERIC = "generic"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Phase(str, enum.Enum):
    """Lifecycle phase of an event (mirrors Chrome's ``ph`` field)."""

    BEGIN = "B"
    END = "E"
    INSTANT = "I"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TraceEvent:
    """One typed occurrence at simulated time ``ts``.

    ``track`` names the timeline lane the event belongs to — a command
    queue (``fluidicl-app``), the runtime itself (``runtime``), a
    scheduler thread, or the pool.  ``attrs`` carries kind-specific
    payload (kernel id, window bounds, byte counts, ...).  ``category``
    preserves the raw producer-side trace category (``subkernel_launch``,
    ``merge_done``, ...) so consumers that need finer dispatch than
    ``kind`` (e.g. the :mod:`repro.check` coherence monitor) get it
    without string-matching names.
    """

    ts: float
    kind: EventKind
    phase: Phase
    name: str
    track: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    category: str = ""

    def __getitem__(self, key: str) -> Any:
        return self.attrs[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)


@dataclass(frozen=True)
class EventSpan:
    """A paired begin/end interval on one track."""

    kind: EventKind
    name: str
    track: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlap(self, other: "EventSpan") -> float:
        """Seconds during which both spans were active."""
        return max(0.0, min(self.end, other.end) - max(self.start, other.start))


def pair_spans(events: Iterable[TraceEvent]) -> List[EventSpan]:
    """Pair BEGIN/END events into :class:`EventSpan` objects.

    Events pair FIFO per ``(track, kind)`` — tracks are in-order execution
    lanes (command queues, threads), so the first unmatched BEGIN on a lane
    is always the one an END closes.  The span inherits the BEGIN's name
    and the merged attrs of both endpoints (END attrs win on conflict, so
    results computed during execution land on the span).
    """
    open_events: Dict[tuple, List[TraceEvent]] = {}
    spans: List[EventSpan] = []
    for event in events:
        key = (event.track, event.kind)
        if event.phase is Phase.BEGIN:
            open_events.setdefault(key, []).append(event)
        elif event.phase is Phase.END:
            pending = open_events.get(key)
            if not pending:
                continue  # orphan END: recorder attached mid-run
            begin = pending.pop(0)
            attrs = dict(begin.attrs)
            attrs.update(event.attrs)
            spans.append(EventSpan(
                kind=event.kind,
                name=begin.name,
                track=event.track,
                start=begin.ts,
                end=event.ts,
                attrs=attrs,
            ))
    return spans
