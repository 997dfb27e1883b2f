"""Platform and context: device discovery over a simulated machine."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.hw.machine import Machine
from repro.hw.specs import DeviceKind
from repro.ocl.buffer import Buffer
from repro.ocl.device import Device
from repro.ocl.enums import MemFlag
from repro.ocl.queue import CommandQueue

__all__ = ["Platform", "Context"]


class Platform:
    """All devices of one simulated node (cf. ``clGetPlatformIDs``).

    The paper's setup has two vendor platforms (NVidia for the GPU, AMD for
    the CPU); here one platform object exposes both devices, each of which
    still has a fully private address space and its own engines.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.devices: List[Device] = [
            Device(machine.engine, spec, link) for spec, link in machine.devices
        ]

    @property
    def engine(self):
        return self.machine.engine

    def device_by_kind(self, kind: DeviceKind) -> Device:
        for device in self.devices:
            if device.kind is kind:
                return device
        raise LookupError(f"no {kind} device on this platform")

    def device_by_name(self, name: str) -> Device:
        for device in self.devices:
            if device.name == name:
                return device
        raise LookupError(f"no device named {name!r} on this platform")

    @property
    def gpu(self) -> Device:
        return self.device_by_kind(DeviceKind.GPU)

    @property
    def cpu(self) -> Device:
        return self.device_by_kind(DeviceKind.CPU)

    @property
    def cpu_path_index(self) -> int:
        """Index of the CPU-path device: the last CPU-kind device, or the
        last device outright on pure-GPU sets such as ``big.little``."""
        index = len(self.devices) - 1
        for i, device in enumerate(self.devices):
            if device.kind is DeviceKind.CPU:
                index = i
        return index

    def create_context(self, devices: Optional[List[Device]] = None) -> "Context":
        return Context(self, devices or list(self.devices))


class Context:
    """A group of devices sharing a host program (cf. ``cl_context``)."""

    def __init__(self, platform: Platform, devices: List[Device]):
        self.platform = platform
        self.devices = list(devices)
        self._buffers: List[Buffer] = []
        self._queues: List[CommandQueue] = []

    @property
    def engine(self):
        return self.platform.engine

    def create_buffer(self, device: Device, shape: Tuple[int, ...], dtype,
                      flags: MemFlag = MemFlag.READ_WRITE,
                      name: str = "") -> Buffer:
        if device not in self.devices:
            raise ValueError(f"{device!r} is not part of this context")
        buffer = device.create_buffer(shape, np.dtype(dtype), flags, name)
        self._buffers.append(buffer)
        return buffer

    def create_queue(self, device: Device, name: str = "") -> CommandQueue:
        if device not in self.devices:
            raise ValueError(f"{device!r} is not part of this context")
        queue = CommandQueue(device, name)
        self._queues.append(queue)
        return queue

    def release(self) -> None:
        """Free every buffer and close every queue created via this context."""
        for buffer in self._buffers:
            if not buffer.released:
                buffer.release()
        for queue in self._queues:
            queue.close()
        self._buffers.clear()
        self._queues.clear()
