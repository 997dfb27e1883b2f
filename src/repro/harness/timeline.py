"""ASCII Gantt rendering of an execution timeline.

Built from the event recorder's command spans, this answers "what
actually overlapped?" — the question behind the paper's §5.5
(computation/communication overlap).  Tests use the spans to assert
overlap properties; humans use the chart to eyeball a FluidiCL schedule:

    run = measure_app(app, trace=True)   # repro.harness.runner
    print(render_gantt(run.machine.tracer.command_spans()))
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.events import EventSpan

__all__ = ["render_gantt"]


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
