"""A `Machine` bundles the simulation engine with a hardware description.

One :class:`Machine` corresponds to one experimental run: it owns the
simulated clock, the host constants and the list of (device, link) pairs.
The OpenCL layer (:mod:`repro.ocl`) instantiates live devices from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.hw.interconnect import InterconnectSpec
from repro.hw.specs import (
    DEFAULT_HOST,
    HOST_DDR3,
    PCIE_GEN2_X16,
    TESLA_C2070,
    XEON_W3550,
    DeviceSpec,
    HostSpec,
)
from repro.obs.recorder import EventRecorder
from repro.sim.core import Engine

__all__ = ["Machine", "MACHINE_PRESETS", "build_machine"]


@dataclass
class Machine:
    """Simulated node: clock + host + devices."""

    engine: Engine
    host: HostSpec
    devices: List[Tuple[DeviceSpec, InterconnectSpec]] = field(default_factory=list)

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def tracer(self) -> Optional[EventRecorder]:
        return self.engine.tracer

    def host_api_call(self) -> None:
        """Advance the clock by one host API call overhead.

        Host code is not a simulated process, so API-call costs are applied
        by nudging the clock forward between events.  ``run_for`` advances
        by an exact tick delta — summing ``now + overhead`` in floats here
        used to accumulate one rounding per API call.
        """
        self.engine.run_for(self.host.api_call_overhead)

    def run_until(self, event) -> object:
        """Block host execution until ``event`` triggers (drives the engine)."""
        return self.engine.run(event)


#: named device sets for :func:`build_machine`.  Device 0 is always the
#: *anchor* front (it runs the whole NDRange from flattened group ID 0
#: upward, see ``repro.core.deviceset``); the remaining devices are
#: shrinking fronts working down from the top of the range.  Names must be
#: unique within a preset: per-device counters, fault targets and buffer
#: copies are keyed by device name.
MACHINE_PRESETS = {
    # the classic paper testbed (what build_machine() builds)
    "default": (
        (TESLA_C2070, PCIE_GEN2_X16),
        (XEON_W3550, HOST_DDR3),
    ),
    # two equal discrete GPUs plus the host CPU
    "cpu+2gpu": (
        (TESLA_C2070, PCIE_GEN2_X16),
        (TESLA_C2070.renamed("Tesla C2070 #2"), PCIE_GEN2_X16),
        (XEON_W3550, HOST_DDR3),
    ),
    # asymmetric big.LITTLE-style multi-GPU: one full-rate GPU fronting a
    # much smaller one (no CPU-kind device in the set at all)
    "big.little": (
        (TESLA_C2070.renamed("Tesla C2070 big"), PCIE_GEN2_X16),
        (TESLA_C2070.scaled(0.35).renamed("Tesla C2070 little"),
         PCIE_GEN2_X16),
    ),
    # the widest stock set: three GPUs (one half-rate) plus the CPU
    "cpu+3gpu": (
        (TESLA_C2070, PCIE_GEN2_X16),
        (TESLA_C2070.renamed("Tesla C2070 #2"), PCIE_GEN2_X16),
        (TESLA_C2070.scaled(0.5).renamed("Tesla C2070 #3"), PCIE_GEN2_X16),
        (XEON_W3550, HOST_DDR3),
    ),
}


def build_machine(
    *,
    preset: Optional[str] = None,
    devices: Optional[Sequence[Tuple[DeviceSpec, InterconnectSpec]]] = None,
    trace: bool = False,
    interleave_seed: Optional[int] = None,
) -> Machine:
    """A fresh node: a preset from :data:`MACHINE_PRESETS` or a device list.

    ``preset`` names a stock device set (``"default"``, the paper's Tesla
    C2070 over PCIe 2.0 + Xeon W3550, when neither argument is given);
    ``devices=[(spec, link), ...]`` spells any other set, e.g. one device
    scaled with :meth:`~repro.hw.specs.DeviceSpec.scaled`.  Device 0 is
    the anchor front of the cooperative runtime.  With ``trace=True`` the
    engine records into an :class:`~repro.obs.recorder.EventRecorder`,
    whose typed event stream feeds the Gantt, the Chrome export and the
    overlap assertions.  ``interleave_seed`` arms the engine's
    same-instant interleaving jitter (schedule-space fuzzing, see
    :mod:`repro.check`).
    """
    if devices is None:
        name = "default" if preset is None else preset
        try:
            devices = list(MACHINE_PRESETS[name])
        except KeyError:
            raise ValueError(
                f"unknown machine preset {name!r}; "
                f"have {sorted(MACHINE_PRESETS)}"
            ) from None
    elif preset is not None:
        raise ValueError("pass either devices= or preset=, not both")
    else:
        devices = list(devices)
        if not devices:
            raise ValueError("a machine needs at least one device")
        names = [spec.name for spec, _link in devices]
        if len(set(names)) != len(names):
            raise ValueError(f"device names must be unique, got {names}")
    engine = Engine(tracer=EventRecorder() if trace else None)
    if interleave_seed is not None:
        engine.set_interleave_jitter(random.Random(interleave_seed))
    return Machine(engine=engine, host=DEFAULT_HOST, devices=devices)
