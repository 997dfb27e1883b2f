"""Execution-timeline extraction and ASCII Gantt rendering.

Built from the event recorder, this answers "what actually overlapped?"
— the question behind the paper's §5.5 (computation/communication overlap).
Tests use it to assert overlap properties; humans use it to eyeball a
FluidiCL schedule:

    run = measure_app(app, trace=True)   # repro.harness.runner
    print(render_gantt(extract_spans(run.machine.tracer)))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.events import EventSpan
from repro.obs.recorder import EventRecorder

__all__ = ["extract_spans", "render_gantt"]


def extract_spans(recorder: EventRecorder,
                  kinds: Optional[List[str]] = None) -> List[EventSpan]:
    """Queue-command execution spans, one per executed command.

    They come from the recorder's typed event stream — the same stream the
    Chrome-trace export reads, so the ASCII Gantt and the JSON timeline
    cannot disagree.  ``kinds`` filters on the command type
    (``attrs["type"]``, e.g. ``"ndrange_kernel"``).
    """
    spans = recorder.command_spans()
    if kinds is not None:
        spans = [s for s in spans if s.attrs.get("type") in kinds]
    return spans


def render_gantt(spans: List[EventSpan], width: int = 72) -> str:
    """ASCII Gantt chart: one row per track, '#' where a command ran."""
    if not spans:
        return "(empty timeline)"
    t_min = min(s.start for s in spans)
    t_max = max(s.end for s in spans)
    horizon = max(t_max - t_min, 1e-12)
    tracks: Dict[str, List[EventSpan]] = {}
    for span in spans:
        tracks.setdefault(span.track, []).append(span)
    name_width = max(len(t) for t in tracks)
    lines = [
        f"{'':{name_width}}  t = [{t_min * 1e3:.3f} ms .. {t_max * 1e3:.3f} ms]"
    ]
    for track in sorted(tracks):
        cells = [" "] * width
        for span in tracks[track]:
            lo = int((span.start - t_min) / horizon * (width - 1))
            hi = int((span.end - t_min) / horizon * (width - 1))
            for i in range(lo, hi + 1):
                cells[i] = "#"
        busy = sum(s.duration for s in tracks[track])
        lines.append(
            f"{track:{name_width}}  {''.join(cells)}  "
            f"{busy / horizon:5.0%} busy"
        )
    return "\n".join(lines)
