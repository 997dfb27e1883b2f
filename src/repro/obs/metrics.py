"""Per-run metrics: counters, gauges and histograms behind one registry.

The FluidiCL runtime keeps its bookkeeping in typed instruments —
monotonic :class:`Counter`, last-value :class:`Gauge`, and a streaming
:class:`Histogram` that keeps only count/sum/min/max — behind one
:class:`MetricsRegistry`.  :class:`CounterView` is the mapping interface
over the counters (``runtime.stats.extra["merges"]``).
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Any, Dict, Iterator, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "CounterView"]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A metric holding the most recent value set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Streaming summary of observed samples (count/sum/min/max/mean)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


class MetricsRegistry:
    """Creates-on-demand namespace of counters, gauges and histograms."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            self._check_free(name)
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            self._check_free(name)
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            self._check_free(name)
            metric = self.histograms[name] = Histogram(name)
        return metric

    def _check_free(self, name: str) -> None:
        for family in (self.counters, self.gauges, self.histograms):
            if name in family:
                raise ValueError(
                    f"metric name {name!r} already registered with a "
                    f"different type"
                )

    def counter_view(self) -> "CounterView":
        """A dict-shaped live view of the counters (``stats.extra``)."""
        return CounterView(self)

    def snapshot(self) -> Dict[str, Any]:
        """Flat, JSON-serializable dump of every instrument."""
        out: Dict[str, Any] = {}
        for name, counter in sorted(self.counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(self.gauges.items()):
            out[name] = gauge.value
        for name, histogram in sorted(self.histograms.items()):
            for stat, value in histogram.summary().items():
                out[f"{name}.{stat}"] = value
        return out


class CounterView(MutableMapping):
    """Mapping facade over a registry's counters.

    ``view["merges"]`` reads the counter's value, ``view["merges"] += 1``
    routes through :meth:`Counter.inc`, and ``view.update(merges=0)``
    registers names.
    """

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry

    def __getitem__(self, name: str) -> int:
        if name not in self._registry.counters:
            raise KeyError(name)
        return self._registry.counters[name].value

    def __setitem__(self, name: str, value: int) -> None:
        counter = self._registry.counter(name)
        if value < counter.value:
            raise ValueError(
                f"counter {name!r} cannot decrease ({counter.value} -> {value})"
            )
        counter.value = int(value)

    def __delitem__(self, name: str) -> None:
        raise TypeError("counters cannot be deleted from a run")

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.counters)

    def __len__(self) -> int:
        return len(self._registry.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterView({dict(self)!r})"
