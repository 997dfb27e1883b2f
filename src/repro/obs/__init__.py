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
- :mod:`repro.obs.metrics` — counters / gauges / histograms behind a
  per-run :class:`MetricsRegistry`; ``runtime.stats.extra`` is a mapping
  view over its counters.
- :mod:`repro.obs.chrome` — ``chrome://tracing`` / Perfetto JSON export.
"""

from repro.obs.chrome import to_chrome_trace, write_chrome_trace
from repro.obs.events import EventKind, EventSpan, Phase, TraceEvent, pair_spans
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import EventRecorder

__all__ = [
    "Counter",
    "EventKind",
    "EventRecorder",
    "EventSpan",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Phase",
    "TraceEvent",
    "pair_spans",
    "to_chrome_trace",
    "write_chrome_trace",
]
