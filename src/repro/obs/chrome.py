"""Chrome-trace-format export of the typed event stream.

Produces the JSON object format understood by ``chrome://tracing`` and
Perfetto: a ``traceEvents`` array of complete (``ph: "X"``), instant
(``ph: "i"``) and metadata (``ph: "M"``) events, with timestamps in
microseconds.  Each recorder track (command queue, runtime, scheduler,
dh-thread, pool) becomes one named thread, so the PCIe-shipping /
merge / read-back overlap of the paper's §5.4–§5.6 is directly visible
as parallel lanes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.events import Phase
from repro.obs.recorder import EventRecorder

__all__ = ["to_chrome_trace", "write_chrome_trace"]

_PID = 1
_SECONDS_TO_US = 1e6


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _args(attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {str(k): _jsonable(v) for k, v in attrs.items()}


def to_chrome_trace(recorder: EventRecorder,
                    process_name: str = "fluidicl",
                    metrics: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Convert a recorder's event stream to a Chrome-trace JSON object.

    ``metrics`` (e.g. ``dict(runtime.stats.extra)``) is attached under
    ``otherData`` so the run's counters travel with its timeline.
    """
    tracks = recorder.tracks()
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    trace_events: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": _PID,
        "tid": 0,
        "args": {"name": process_name},
    }]
    for track, tid in tids.items():
        trace_events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": track},
        })

    for span in recorder.event_spans():
        trace_events.append({
            "name": span.name,
            "cat": span.kind.value,
            "ph": "X",
            "ts": span.start * _SECONDS_TO_US,
            "dur": span.duration * _SECONDS_TO_US,
            "pid": _PID,
            "tid": tids.get(span.track, 0),
            "args": _args(span.attrs),
        })
    for event in recorder.events:
        if event.phase is not Phase.INSTANT:
            continue
        trace_events.append({
            "name": event.name,
            "cat": event.kind.value,
            "ph": "i",
            "ts": event.ts * _SECONDS_TO_US,
            "pid": _PID,
            "tid": tids.get(event.track, 0),
            "s": "t",
            "args": _args(event.attrs),
        })

    trace_events.sort(key=lambda e: (e.get("ts", -1.0), e["tid"]))
    out: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        out["otherData"] = {"metrics": _jsonable(metrics)}
    return out


def write_chrome_trace(path: str, recorder: EventRecorder,
                       process_name: str = "fluidicl",
                       metrics: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
    """Serialize :func:`to_chrome_trace` output to ``path``, creating its
    directory; returns the trace it wrote."""
    trace = to_chrome_trace(recorder, process_name=process_name,
                            metrics=metrics)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
    return trace
