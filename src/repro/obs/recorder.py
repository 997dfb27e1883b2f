"""The event recorder: one stream feeding every observability consumer.

:class:`EventRecorder` is what ``Engine(tracer=...)`` records into: every
``engine.trace(category, **payload)`` call becomes one typed
:class:`~repro.obs.events.TraceEvent`.  The ASCII Gantt, the overlap
property tests, the coherence monitor and the Chrome-trace exporter all
read this one stream, so they can never disagree about what happened.

The mapping from producer category names to typed kinds lives here, in
one table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import EventKind, EventSpan, Phase, TraceEvent, pair_spans

__all__ = ["EventRecorder"]


def _payload_label(payload: Dict[str, Any]) -> str:
    """Human-readable name for a command payload (kernel/buffer/transfer)."""
    if "kernel" in payload:
        window = payload.get("window")
        return f"{payload['kernel']}{window}" if window else str(payload["kernel"])
    if "buffer" in payload:
        return str(payload["buffer"])
    if "src" in payload:
        return f"{payload['src']}->{payload.get('dst', '?')}"
    return str(payload.get("label", "") or payload.get("type", ""))


#: category -> (kind, phase, default track key); track falls back to the
#: payload's ``queue``/``track`` field, then to the literal default.
_CATEGORIES: Dict[str, Tuple[EventKind, Phase, str]] = {
    "cmd_start": (EventKind.COMMAND, Phase.BEGIN, "queue"),
    "cmd_end": (EventKind.COMMAND, Phase.END, "queue"),
    "kernel_begin": (EventKind.KERNEL, Phase.BEGIN, "runtime"),
    "kernel_end": (EventKind.KERNEL, Phase.END, "runtime"),
    "subkernel_launch": (EventKind.SUBKERNEL, Phase.INSTANT, "scheduler"),
    "status_delivery": (EventKind.STATUS, Phase.INSTANT, "hd"),
    "merge_enqueued": (EventKind.MERGE, Phase.INSTANT, "runtime"),
    "merge_done": (EventKind.MERGE, Phase.INSTANT, "runtime"),
    # the anchor ran a covered last wave whole: its merges cost more
    "abort_declined": (EventKind.MERGE, Phase.INSTANT, "runtime"),
    "input_refresh": (EventKind.REFRESH, Phase.INSTANT, "runtime"),
    "dh_readback_begin": (EventKind.DH_READBACK, Phase.BEGIN, "dh-thread"),
    "dh_readback_end": (EventKind.DH_READBACK, Phase.END, "dh-thread"),
    "stale_dh_discard": (EventKind.STALE_DISCARD, Phase.INSTANT, "dh-thread"),
    "pool_hit": (EventKind.POOL, Phase.INSTANT, "pool"),
    # a pool allocation blocks the thread that asked (payload ``track``)
    "alloc_begin": (EventKind.POOL, Phase.BEGIN, "runtime"),
    "alloc_end": (EventKind.POOL, Phase.END, "runtime"),
    "buffer_write": (EventKind.BUFFER_WRITE, Phase.INSTANT, "runtime"),
    "buffer_read": (EventKind.BUFFER_READ, Phase.INSTANT, "runtime"),
    "commit": (EventKind.COMMIT, Phase.INSTANT, "runtime"),
    "fault_injected": (EventKind.FAULT, Phase.INSTANT, "faults"),
    "fault_retry": (EventKind.FAULT, Phase.INSTANT, "faults"),
    "device_degraded": (EventKind.FAILOVER, Phase.INSTANT, "runtime"),
    "failover": (EventKind.FAILOVER, Phase.INSTANT, "runtime"),
    "lint_finding": (EventKind.LINT, Phase.INSTANT, "lint"),
    # serving-layer job lifecycle: all INSTANT (jobs run concurrently, so
    # begin/end FIFO span pairing per track would mispair them; consumers
    # correlate on the job_id attr instead)
    "job_submitted": (EventKind.JOB, Phase.INSTANT, "serve"),
    "job_admitted": (EventKind.JOB, Phase.INSTANT, "serve"),
    "job_shed": (EventKind.JOB, Phase.INSTANT, "serve"),
    "job_started": (EventKind.JOB, Phase.INSTANT, "serve"),
    "job_done": (EventKind.JOB, Phase.INSTANT, "serve"),
}


class EventRecorder:
    """Records the engine's trace calls as the typed event stream.

    Online consumers (e.g. the :mod:`repro.check` coherence monitor)
    register through :meth:`add_listener` and receive every typed event
    synchronously, at the simulated instant it is recorded — so they can
    assert invariants *while* the run unfolds instead of post-mortem.
    """

    def __init__(self, retain: bool = True):
        self.events: List[TraceEvent] = []
        self._listeners: List[Any] = []
        #: with ``retain=False`` the recorder derives typed events and
        #: notifies listeners but keeps none in memory — the mode for load
        #: tests that record 10^5+ job lifecycles and only need online
        #: consumers (monitor, metrics), not post-mortem logs
        self.retain = retain
        #: typed events recorded so far, retained or not
        self.recorded = 0

    # -- monitor hook API --------------------------------------------------
    def add_listener(self, fn) -> None:
        """Register ``fn(event: TraceEvent)`` to run on every typed event."""
        self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        self._listeners.remove(fn)

    # -- ingestion ---------------------------------------------------------
    def record(self, time: float, category: str, payload: Dict[str, Any]) -> None:
        kind, phase, default_track = _CATEGORIES.get(
            category, (EventKind.GENERIC, Phase.INSTANT, "misc")
        )
        track = payload.get("queue") or payload.get("track") or default_track
        if kind is EventKind.POOL:
            name = "hit" if category == "pool_hit" else "alloc"
        elif kind in (EventKind.FAULT, EventKind.FAILOVER):
            # fault events carry their class in the payload ("device-loss",
            # "transfer", ...); watchdog/failover events name themselves
            name = str(payload.get("kind", category))
        elif kind in (EventKind.GENERIC, EventKind.JOB):
            name = category
        else:
            name = _payload_label(payload) or kind.value
        event = TraceEvent(
            ts=time,
            kind=kind,
            phase=phase,
            name=name,
            track=str(track),
            attrs=dict(payload),
            category=category,
        )
        self.recorded += 1
        if self.retain:
            self.events.append(event)
        for listener in self._listeners:
            listener(event)

    def clear(self) -> None:
        self.events.clear()

    # -- typed queries -----------------------------------------------------
    def by_kind(self, kind: EventKind) -> List[TraceEvent]:
        return [e for e in self.events if e.kind is kind]

    def instants(self, kind: Optional[EventKind] = None) -> List[TraceEvent]:
        return [
            e for e in self.events
            if e.phase is Phase.INSTANT and (kind is None or e.kind is kind)
        ]

    def event_spans(self, kind: Optional[EventKind] = None) -> List[EventSpan]:
        """All paired begin/end intervals, optionally filtered by kind."""
        spans = pair_spans(self.events)
        if kind is not None:
            spans = [s for s in spans if s.kind is kind]
        return spans

    def command_spans(self) -> List[EventSpan]:
        """Queue-command execution intervals (the Gantt's raw material)."""
        return self.event_spans(EventKind.COMMAND)

    def counts(self) -> Dict[str, int]:
        """Number of typed events per kind (INSTANT and BEGIN phases only,
        so spans count once)."""
        out: Dict[str, int] = {}
        for event in self.events:
            if event.phase is Phase.END:
                continue
            out[event.kind.value] = out.get(event.kind.value, 0) + 1
        return out

    def tracks(self) -> List[str]:
        """Track names in order of first appearance."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)
