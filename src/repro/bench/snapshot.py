"""``BENCH_<n>.json`` snapshots: schema, persistence, regression gate.

A snapshot is the durable record of one bench run.  Snapshots are
numbered (``BENCH_1.json``, ``BENCH_2.json``, ...) and a new run always
writes the next free number — committed snapshots are never rewritten,
and uncommitted ones are git-ignored, so a plain ``harness bench`` run
leaves the working tree clean.

Comparison is throughput-based (higher is better): a case *regresses*
when ``baseline_throughput / current_throughput > threshold``.  Cases
also carry the *simulated* seconds of the work they timed, which must
not drift at all between snapshots taken on the same code — wall-clock
optimization must never change what the simulator computes.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.timebase import is_us_aligned

__all__ = [
    "SCHEMA_VERSION",
    "BenchResult",
    "BenchSnapshot",
    "Comparison",
    "CaseComparison",
    "compare_snapshots",
    "find_snapshots",
    "load_snapshot",
    "next_snapshot_path",
]

#: bump when the snapshot JSON layout changes incompatibly
SCHEMA_VERSION = 1

#: relative tolerance for "simulated seconds unchanged" (the simulator is
#: deterministic; anything beyond float noise is a behaviour change).
#: When *both* sides land on exact microsecond instants the gate is
#: stricter still: the integer-tick clock renders aligned instants
#: exactly, so any difference at all — even one ULP — is drift.
SIMULATED_RTOL = 1e-9

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass
class BenchResult:
    """One benchmark case's outcome."""

    #: stable case identifier, e.g. ``micro.event_churn`` or
    #: ``micro.event_churn.smoke``
    id: str
    #: ``micro`` (engine/runtime hot path); snapshots up to BENCH_10 also
    #: hold ``app`` cases (full cooperative runs)
    kind: str
    #: what ``throughput`` counts, e.g. ``events/s``, ``subkernels/s``
    unit: str
    #: work units per wall second of the best run (higher is better)
    throughput: float
    #: best timed run, wall seconds
    wall_seconds: float
    #: mean of the timed runs, wall seconds
    wall_mean_seconds: float
    #: (max-min)/best across the timed runs — noise indicator
    spread: float
    #: timed repeats that ran
    repeats: int
    #: simulated seconds of the timed work (None when a case simulates
    #: nothing)
    simulated_seconds: Optional[float] = None
    #: case-specific extras (speedups, counters, problem sizes, ...)
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class BenchSnapshot:
    """One full bench run, as persisted to ``BENCH_<n>.json``."""

    results: List[BenchResult]
    schema_version: int = SCHEMA_VERSION
    created_at: str = ""
    host: Dict[str, str] = field(default_factory=dict)
    #: the sizes and flags this run used (smoke vs full, repeats, ...)
    config: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def result(self, case_id: str) -> Optional[BenchResult]:
        for r in self.results:
            if r.id == case_id:
                return r
        return None

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "host": self.host,
            "config": self.config,
            "notes": self.notes,
            "results": [asdict(r) for r in self.results],
        }

    def dump(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")


def host_fingerprint() -> Dict[str, str]:
    """Where a snapshot was taken — wall numbers only compare like-for-like."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def load_snapshot(path: str) -> BenchSnapshot:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: snapshot schema {version!r} not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    results = [BenchResult(**r) for r in data.get("results", [])]
    return BenchSnapshot(
        results=results,
        schema_version=version,
        created_at=data.get("created_at", ""),
        host=data.get("host", {}),
        config=data.get("config", {}),
        notes=data.get("notes", []),
    )


def find_snapshots(root: str) -> List[Tuple[int, str]]:
    """``(n, path)`` of every ``BENCH_<n>.json`` under ``root``, ascending."""
    found = []
    for entry in os.listdir(root):
        match = _SNAPSHOT_RE.match(entry)
        if match:
            found.append((int(match.group(1)), os.path.join(root, entry)))
    return sorted(found)


def next_snapshot_path(root: str) -> str:
    """Path of the next free ``BENCH_<n>.json`` (never an existing file)."""
    taken = find_snapshots(root)
    n = taken[-1][0] + 1 if taken else 1
    return os.path.join(root, f"BENCH_{n}.json")


@dataclass
class CaseComparison:
    """One case, current run vs baseline."""

    id: str
    baseline_throughput: float
    current_throughput: float
    #: current/baseline throughput: >1 is a speedup, <1 a slowdown
    ratio: float
    regressed: bool
    #: simulated seconds drifted beyond float tolerance
    simulated_drift: bool = False


@dataclass
class Comparison:
    """Threshold-gated comparison of a bench run against a baseline."""

    baseline_path: str
    threshold: float
    cases: List[CaseComparison] = field(default_factory=list)
    #: case ids present on one side only (informational, never a failure)
    unmatched: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[CaseComparison]:
        return [c for c in self.cases if c.regressed]

    @property
    def drifted(self) -> List[CaseComparison]:
        return [c for c in self.cases if c.simulated_drift]

    @property
    def best_improvement(self) -> Optional[CaseComparison]:
        return max(self.cases, key=lambda c: c.ratio, default=None)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.drifted


def compare_snapshots(current: BenchSnapshot, baseline: BenchSnapshot,
                      threshold: float, baseline_path: str = "") -> Comparison:
    """Compare matching case ids; flag slowdowns beyond ``threshold``.

    ``threshold`` is the tolerated wall slowdown factor: 1.5 means "fail
    if a case got more than 1.5x slower than the baseline".  Wall clocks
    are noisy, so CI uses a deliberately generous value (see DESIGN.md);
    simulated seconds are deterministic and tolerate no drift at all.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1.0 (a slowdown factor)")
    out = Comparison(baseline_path=baseline_path, threshold=threshold)
    current_ids = {r.id for r in current.results}
    for base in baseline.results:
        cur = current.result(base.id)
        if cur is None:
            out.unmatched.append(base.id)
            continue
        ratio = (cur.throughput / base.throughput
                 if base.throughput > 0 else float("inf"))
        drift = False
        if (base.simulated_seconds is not None
                and cur.simulated_seconds is not None):
            if is_us_aligned(base.simulated_seconds):
                # the baseline is an exact microsecond instant, which the
                # tick clock renders bit-exactly: any difference at all —
                # including sub-rtol residue creeping back in — is drift
                drift = cur.simulated_seconds != base.simulated_seconds
            else:
                reference = max(abs(base.simulated_seconds), 1e-300)
                drift = (abs(cur.simulated_seconds - base.simulated_seconds)
                         > SIMULATED_RTOL * reference)
        out.cases.append(CaseComparison(
            id=base.id,
            baseline_throughput=base.throughput,
            current_throughput=cur.throughput,
            ratio=ratio,
            regressed=ratio < 1.0 / threshold,
            simulated_drift=drift,
        ))
    out.unmatched.extend(sorted(current_ids - {r.id for r in baseline.results}))
    return out
