"""A miniature OpenCL vendor runtime over the simulated hardware.

This package plays the role of the per-device vendor stacks in the paper's
Fig. 1/4: each :class:`~repro.ocl.device.Device` has a compute engine and
two DMA engines (host-to-device and device-to-host) modeled as simulation
resources, :class:`~repro.ocl.queue.CommandQueue` provides in-order OpenCL
command-queue semantics with profiling events, and
:class:`~repro.ocl.buffer.Buffer` objects live in a device's **discrete
address space** (copy-on-write: a host write's frozen snapshot is shared
read-only until a kernel writes the buffer), so nothing is coherent unless
some runtime explicitly moves bytes — exactly the setting FluidiCL targets.

``repro.ocl.runtime.SingleDeviceRuntime`` is the "vendor runtime used
directly" baseline of the paper's evaluation; FluidiCL (:mod:`repro.core`)
and SOCL (:mod:`repro.baselines.starpu`) are layered on the same primitives.
"""

from repro.ocl.buffer import Buffer
from repro.ocl.device import Device
from repro.ocl.enums import CommandStatus, CommandType, MemFlag
from repro.ocl.events import CLEvent
from repro.ocl.executor import LaunchConfig, StatusBoard
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Context, Platform
from repro.ocl.queue import CommandQueue
from repro.ocl.runtime import AbstractRuntime, RunStats, SingleDeviceRuntime

__all__ = [
    "AbstractRuntime",
    "Buffer",
    "CLEvent",
    "CommandQueue",
    "CommandStatus",
    "CommandType",
    "Context",
    "Device",
    "Kernel",
    "LaunchConfig",
    "MemFlag",
    "NDRange",
    "Platform",
    "RunStats",
    "SingleDeviceRuntime",
    "StatusBoard",
]
