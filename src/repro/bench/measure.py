"""Wall-clock measurement with warmup: the one timing loop of the bench.

Every benchmark case is a zero-argument callable; the harness runs it
``warmup`` times untimed (bytecode caches, allocator pools and branch
predictors settle), then ``repeats`` timed runs with
``time.perf_counter``.  The *best* run is the headline number: on a
shared machine the minimum is the least-noise estimate of the code's
intrinsic cost, and the mean/spread are kept alongside for context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List

__all__ = ["Measurement", "measure"]


@dataclass
class Measurement:
    """Wall-clock statistics of one benchmark case."""

    #: per-repeat wall seconds, in run order
    runs: List[float] = field(default_factory=list)
    #: value returned by the last timed run (cases may return metadata)
    last_result: Any = None

    @property
    def best(self) -> float:
        return min(self.runs)

    @property
    def mean(self) -> float:
        return sum(self.runs) / len(self.runs)

    @property
    def spread(self) -> float:
        """Relative spread (max-min)/best — a cheap noise indicator."""
        return (max(self.runs) - min(self.runs)) / self.best if self.best else 0.0


def measure(fn: Callable[[], Any], repeats: int = 3,
            warmup: int = 1) -> Measurement:
    """Time ``fn()``: ``warmup`` untimed runs, then ``repeats`` timed ones."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    out = Measurement()
    for _ in range(repeats):
        began = time.perf_counter()
        result = fn()
        out.runs.append(time.perf_counter() - began)
        out.last_result = result
    return out
