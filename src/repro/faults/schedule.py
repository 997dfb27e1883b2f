"""Deterministic, sim-time-driven fault schedules.

A :class:`FaultSchedule` is a plain list of :class:`FaultSpec` entries —
*what* goes wrong, *where*, and at what simulated time.  Schedules are data:
they can be built explicitly (tests, CLI) or drawn reproducibly from a seed
(:meth:`FaultSchedule.seeded`).  Applying a schedule to a runtime is the
injector's job (:mod:`repro.faults.injector`).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = ["FaultKind", "FaultSpec", "FaultSchedule"]


class FaultKind(str, enum.Enum):
    """The four fault classes of the taxonomy (see DESIGN.md)."""

    #: device makes no progress for ``duration`` seconds, then resumes
    DEVICE_STALL = "device-stall"
    #: device is permanently gone from ``at`` onward
    DEVICE_LOSS = "device-loss"
    #: the next ``count`` DMA transfers in ``direction`` fail transiently
    TRANSFER_FAULT = "transfer-fault"
    #: the host link's bandwidth is scaled by ``factor`` from ``at`` onward
    LINK_DEGRADE = "link-degrade"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_DIRECTIONS = ("h2d", "d2h")
_DEVICES = ("gpu", "cpu")

#: the extra fields of each kind's representative faults (one spec each,
#: except two transient failures in each transfer direction)
_REPRESENTATIVE = {
    FaultKind.DEVICE_STALL: [{"duration": 5e-4}],
    FaultKind.DEVICE_LOSS: [{}],
    FaultKind.TRANSFER_FAULT: [{"direction": d, "count": 2}
                               for d in _DIRECTIONS],
    FaultKind.LINK_DEGRADE: [{"factor": 0.25}],
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    kind: FaultKind
    #: simulated time (seconds) at which the fault strikes
    at: float
    #: which device it targets: the shorthand kinds ``"gpu"`` / ``"cpu"``
    #: (the classic pair) or any device *name* of an N-device set (e.g.
    #: ``"Tesla C2070 #2"``) — resolved by the injector against the runtime
    device: str = "gpu"
    #: DEVICE_STALL: how long the device freezes
    duration: float = 0.0
    #: TRANSFER_FAULT: which DMA direction fails
    direction: str = "h2d"
    #: TRANSFER_FAULT: how many consecutive attempts fail
    count: int = 1
    #: LINK_DEGRADE: bandwidth multiplier in (0, 1]
    factor: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.at < 0:
            raise ValueError("fault time must be >= 0")
        if not self.device or not isinstance(self.device, str):
            raise ValueError(
                f"device must be one of {_DEVICES} or a device name"
            )
        if self.kind is FaultKind.DEVICE_STALL and self.duration <= 0:
            raise ValueError("stall faults need duration > 0")
        if self.kind is FaultKind.TRANSFER_FAULT:
            if self.direction not in _DIRECTIONS:
                raise ValueError(f"direction must be one of {_DIRECTIONS}")
            if self.count < 1:
                raise ValueError("transfer faults need count >= 1")
        if self.kind is FaultKind.LINK_DEGRADE and not 0 < self.factor <= 1:
            raise ValueError("link degrade factor must be in (0, 1]")

    def describe(self) -> dict:
        """Trace-payload form (only the fields the kind actually uses)."""
        payload = {"kind": self.kind.value, "device": self.device}
        if self.kind is FaultKind.DEVICE_STALL:
            payload["duration"] = self.duration
        elif self.kind is FaultKind.TRANSFER_FAULT:
            payload["direction"] = self.direction
            payload["count"] = self.count
        elif self.kind is FaultKind.LINK_DEGRADE:
            payload["factor"] = self.factor
        return payload


@dataclass
class FaultSchedule:
    """An ordered collection of faults to apply to one run."""

    specs: List[FaultSpec] = field(default_factory=list)
    #: seed this schedule was drawn from, for reporting (None if hand-built)
    seed: Optional[int] = None

    def __post_init__(self):
        self.specs = sorted(self.specs, key=lambda s: s.at)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def add(self, spec: FaultSpec) -> "FaultSchedule":
        self.specs.append(spec)
        self.specs.sort(key=lambda s: s.at)
        return self

    # -- constructors ------------------------------------------------------
    @classmethod
    def single(cls, kind: FaultKind, at: float, **kwargs) -> "FaultSchedule":
        """One-fault schedule; keyword args go to :class:`FaultSpec`."""
        return cls([FaultSpec(kind=FaultKind(kind), at=at, **kwargs)])

    @classmethod
    def representative(cls, kind: FaultKind, at: float,
                       device: str) -> "FaultSchedule":
        """The one representative fault of ``kind`` on ``device`` at ``at``.

        A 0.5 ms stall, a loss, two transient H2D plus two transient D2H
        failures, or the link at a quarter of its bandwidth: what
        ``harness trace --faults`` and the ``ext_faults`` table inject.
        """
        kind = FaultKind(kind)
        return cls([FaultSpec(kind=kind, at=at, device=device, **extra)
                    for extra in _REPRESENTATIVE[kind]])

    @classmethod
    def seeded(
        cls,
        seed: int,
        window: Tuple[float, float],
        kinds: Optional[Sequence[FaultKind]] = None,
        n: int = 1,
        devices: Sequence[str] = ("gpu",),
        stall_range: Tuple[float, float] = (1e-4, 1e-3),
        transfer_count_range: Tuple[int, int] = (1, 3),
        factor_range: Tuple[float, float] = (0.1, 0.5),
    ) -> "FaultSchedule":
        """Draw ``n`` faults reproducibly from ``seed``.

        Times are uniform over ``window`` (simulated seconds); the kind is
        drawn from ``kinds`` (all four by default).  Identical arguments
        always yield an identical schedule.
        """
        lo, hi = window
        if not 0 <= lo <= hi:
            raise ValueError("window must satisfy 0 <= lo <= hi")
        if n < 0:
            raise ValueError("n must be >= 0")
        rng = random.Random(seed)
        pool = list(kinds) if kinds else list(FaultKind)
        specs = []
        for _ in range(n):
            kind = rng.choice(pool)
            kwargs = {
                "kind": kind,
                "at": rng.uniform(lo, hi),
                "device": rng.choice(list(devices)),
            }
            if kind is FaultKind.DEVICE_STALL:
                kwargs["duration"] = rng.uniform(*stall_range)
            elif kind is FaultKind.TRANSFER_FAULT:
                kwargs["direction"] = rng.choice(_DIRECTIONS)
                kwargs["count"] = rng.randint(*transfer_count_range)
            elif kind is FaultKind.LINK_DEGRADE:
                kwargs["factor"] = rng.uniform(*factor_range)
            specs.append(FaultSpec(**kwargs))
        return cls(specs, seed=seed)

    def describe(self) -> List[dict]:
        return [dict(s.describe(), at=s.at) for s in self.specs]
