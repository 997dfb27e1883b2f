"""Hardware model: device/interconnect specifications and the cost model.

The reproduction has no physical GPU; instead, every device is described by a
:class:`~repro.hw.specs.DeviceSpec` whose constants feed an analytic
work-group cost model (:mod:`repro.hw.cost`).  The presets approximate the
paper's testbed: an NVidia Tesla C2070 GPU and a quad-core (8-thread) Intel
Xeon W3550, connected by PCIe 2.0.
"""

from repro.hw.cost import WorkGroupCost, wave_duration, wg_time
from repro.hw.interconnect import InterconnectSpec
from repro.hw.machine import Machine, build_machine
from repro.hw.memory import DeviceMemory, OutOfDeviceMemoryError
from repro.hw.specs import (
    HOST_DDR3,
    PCIE_GEN2_X16,
    TESLA_C2070,
    XEON_W3550,
    DeviceKind,
    DeviceSpec,
    HostSpec,
)

__all__ = [
    "DeviceKind",
    "DeviceMemory",
    "DeviceSpec",
    "HOST_DDR3",
    "HostSpec",
    "InterconnectSpec",
    "Machine",
    "OutOfDeviceMemoryError",
    "PCIE_GEN2_X16",
    "TESLA_C2070",
    "WorkGroupCost",
    "XEON_W3550",
    "build_machine",
    "wave_duration",
    "wg_time",
]
