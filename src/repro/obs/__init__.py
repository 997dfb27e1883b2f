"""Structured observability for the FluidiCL runtime.

The :mod:`repro.obs` package is the instrumentation substrate the paper's
overlap claims (§5.5/§7) are verified against:

- :mod:`repro.obs.events` — the typed event taxonomy (kernel spans, CPU
  subkernel launches, status deliveries, merges, refreshes, stale-data
  discards, pool hits/misses) shared by every producer and consumer.
- :mod:`repro.obs.recorder` — :class:`EventRecorder`, the engine's
  tracer: it turns every ``engine.trace`` call into one typed event, so
  the ASCII Gantt, the overlap assertions, the coherence monitor and the
  Chrome-trace export all read one stream.
- :mod:`repro.obs.chrome` — ``chrome://tracing`` / Perfetto JSON export.

Run counters are not kept here: they live in the runtime's plain
``stats.extra`` dict, per-kernel facts on each
:class:`~repro.core.stats.KernelRecord` and per-job facts on each
:class:`~repro.serve.job.JobRecord`.
"""

from repro.obs.chrome import to_chrome_trace, write_chrome_trace
from repro.obs.events import EventKind, EventSpan, Phase, TraceEvent, pair_spans
from repro.obs.recorder import EventRecorder

__all__ = [
    "EventKind",
    "EventRecorder",
    "EventSpan",
    "Phase",
    "TraceEvent",
    "pair_spans",
    "to_chrome_trace",
    "write_chrome_trace",
]
