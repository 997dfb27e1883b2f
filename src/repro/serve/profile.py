"""Measured per-(app, size) cost profiles for the serving simulation.

Running a full cooperative execution per request would make a 10^5-request
load test intractable, so the serving layer grounds each job in **one**
real FluidiCL run per distinct (app, size, machine preset) in the tenant
mix: the measured elapsed time, per-device busy-compute time, work-share
fractions and DMA byte counts become the job's stage durations.  The
profile stores *bytes*, not transfer seconds, so DMA stages recompute
durations against the device's **current** link at dispatch time — a
``link-degrade`` fault injected mid-run slows subsequent jobs' transfers
exactly as it would slow the real runtime.

Measurement is deterministic (seeded inputs, deterministic simulator), so
the same (app, size, preset) always yields the identical profile — a
prerequisite for the serve CLI's bit-identical-timestamps guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

__all__ = ["AppProfile", "measure_profile", "clear_profile_cache"]


@dataclass(frozen=True)
class AppProfile:
    """Stage costs of one (app, size) pair on one machine preset."""

    app: str
    size: int
    machine: str
    #: total cooperative-run span as measured (seconds)
    elapsed_seconds: float
    #: serialized front-lane occupancy: the bottleneck device's busy
    #: compute time (seconds)
    compute_seconds: float
    #: overlappable host-side stage (API overheads, scheduling, the
    #: non-compute remainder of the measured run)
    host_seconds: float
    #: input bytes shipped to each device (H2D DMA stage)
    h2d_bytes: Mapping[str, int]
    #: result bytes read back from each device (D2H DMA stage)
    d2h_bytes: Mapping[str, int]
    #: work share each device carried in the measured run (sums to 1.0);
    #: when devices are lost, surviving shares rescale the compute time
    fractions: Mapping[str, float]

    def compute_scale(self, alive: Tuple[str, ...]) -> float:
        """Surviving work share: 1.0 with every device alive, less after a
        loss (the job takes ``compute_seconds / scale``)."""
        return sum(self.fractions.get(name, 0.0) for name in alive)


#: profiles measured this process, keyed (app, size, machine preset)
_PROFILE_CACHE: Dict[Tuple[str, int, str], AppProfile] = {}


def clear_profile_cache() -> None:
    _PROFILE_CACHE.clear()


def measure_profile(app: str, size: int,
                    machine: str = "default") -> AppProfile:
    """One real cooperative run of ``app@size``, distilled to stage costs."""
    key = (app, size, machine)
    profile = _PROFILE_CACHE.get(key)
    if profile is not None:
        return profile

    from repro.core.runtime import FluidiCLRuntime
    from repro.hw.machine import build_machine
    from repro.polybench.suite import make_app

    node = build_machine(preset=machine)
    runtime = FluidiCLRuntime(node)
    bench = make_app(app, "test", size=size)
    result = bench.execute(runtime, check=False)
    runtime.drain()

    devices = runtime.platform.devices
    h2d = {d.name: int(d.stats["bytes_h2d"]) for d in devices}
    d2h = {d.name: int(d.stats["bytes_d2h"]) for d in devices}
    busy = {d.name: float(d.stats["busy_compute_time"]) for d in devices}
    groups = {d.name: int(d.stats["workgroups_executed"]) for d in devices}
    total_groups = sum(groups.values())
    if total_groups > 0:
        fractions = {name: n / total_groups for name, n in groups.items()}
    else:  # degenerate run: charge everything to the anchor device
        fractions = {devices[0].name: 1.0}

    compute = max(busy.values()) if busy else 0.0
    transfer = max(
        d.transfer_time(h2d[d.name]) + d.transfer_time(d2h[d.name])
        for d in devices
    )
    host = max(0.0, result.elapsed - compute - transfer)

    profile = _PROFILE_CACHE[key] = AppProfile(
        app=app,
        size=size,
        machine=machine,
        elapsed_seconds=float(result.elapsed),
        compute_seconds=compute,
        host_seconds=host,
        h2d_bytes=h2d,
        d2h_bytes=d2h,
        fractions=fractions,
    )
    return profile
