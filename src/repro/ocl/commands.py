"""Command objects processed by in-order command queues."""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Union

import numpy as np

from repro.ocl.buffer import Buffer
from repro.ocl.enums import CommandType
from repro.ocl.executor import LaunchConfig, run_kernel
from repro.ocl.health import DeviceLostError
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange

__all__ = [
    "Command",
    "WriteBufferCommand",
    "ReadBufferCommand",
    "CopyBufferCommand",
    "KernelCommand",
    "MarkerCommand",
    "CallbackCommand",
]

ArraySource = Union[np.ndarray, Callable[[], np.ndarray]]


class Command:
    """Base class: a unit of work executed by a queue, in order."""

    command_type: CommandType = CommandType.MARKER

    def run(self, queue) -> Generator:
        """Generator driven inside the queue's process; returns the result."""
        raise NotImplementedError
        yield  # pragma: no cover

    def describe(self) -> dict:
        return {}


class WriteBufferCommand(Command):
    """Host-to-device transfer (``clEnqueueWriteBuffer``).

    ``source`` may be an array (aliased if frozen, else copied at execution
    time; see :meth:`Buffer.write_from`) or a zero-argument callable
    producing one — FluidiCL's scheduler passes the *intermediate copy* it
    made so later subkernels can keep writing the live buffer (paper
    section 5.5).
    """

    command_type = CommandType.WRITE_BUFFER

    def __init__(self, buffer: Buffer, source: ArraySource,
                 nbytes: Optional[int] = None):
        self.buffer = buffer
        self.source = source
        self.nbytes = int(nbytes) if nbytes is not None else buffer.nbytes

    def run(self, queue) -> Generator:
        yield from queue.device.transfer("h2d", self.nbytes, queue.name,
                                         self.describe())
        data = self.source() if callable(self.source) else self.source
        self.buffer.write_from(data)
        return self.nbytes

    def describe(self) -> dict:
        return {"buffer": self.buffer.name, "nbytes": self.nbytes}


class ReadBufferCommand(Command):
    """Device-to-host transfer (``clEnqueueReadBuffer``)."""

    command_type = CommandType.READ_BUFFER

    def __init__(self, buffer: Buffer, dest: np.ndarray):
        self.buffer = buffer
        self.dest = dest

    def run(self, queue) -> Generator:
        yield from queue.device.transfer("d2h", self.buffer.nbytes,
                                         queue.name, self.describe())
        self.buffer.read_into(self.dest)
        return self.buffer.nbytes

    def describe(self) -> dict:
        return {"buffer": self.buffer.name, "nbytes": self.buffer.nbytes}


class CopyBufferCommand(Command):
    """On-device buffer-to-buffer copy (``clEnqueueCopyBuffer``).

    FluidiCL uses these to preserve the *original* contents of out/inout
    buffers for the diff step of data merging (paper section 4.3).
    """

    command_type = CommandType.COPY_BUFFER

    def __init__(self, src: Buffer, dst: Buffer):
        if src.device is not dst.device:
            raise ValueError("CopyBuffer requires same-device buffers")
        if src.nbytes != dst.nbytes:
            raise ValueError("CopyBuffer requires equal-size buffers")
        self.src = src
        self.dst = dst

    def run(self, queue) -> Generator:
        device = queue.device
        yield from device.health.barrier()
        request = device.compute.request()
        yield request
        try:
            yield from device.health.barrier()
            yield device.engine.timeout(device.device_copy_time(self.src.nbytes))
        finally:
            device.compute.release(request)
        self.dst.copy_from(self.src)
        device.health.beat()
        return self.src.nbytes

    def describe(self) -> dict:
        return {"src": self.src.name, "dst": self.dst.name}


class KernelCommand(Command):
    """NDRange kernel launch (``clEnqueueNDRangeKernel``)."""

    command_type = CommandType.ND_RANGE_KERNEL

    def __init__(self, kernel: Kernel, ndrange: NDRange,
                 launch: Optional[LaunchConfig] = None):
        self.kernel = kernel
        self.ndrange = ndrange
        self.launch = launch or LaunchConfig()

    def run(self, queue) -> Generator:
        device = queue.device
        self.kernel.check_device(device)
        yield from device.health.barrier()
        request = device.compute.request()
        yield request
        try:
            yield from device.health.barrier()
            yield device.engine.timeout(device.spec.kernel_launch_overhead)
            began = device.engine.now
            result = yield from run_kernel(
                device, self.kernel, self.ndrange, self.launch
            )
            device.stats["kernels_launched"] += 1
            device.stats["busy_compute_time"] += device.engine.now - began
        finally:
            device.compute.release(request)
        # Loss is checked again *after* the waves: even if the compute
        # finished (e.g. the loss struck mid-wave and the wave ran out),
        # the results live in the dead device's memory and can never be
        # read back or merged — the launch is void either way.
        if result.device_lost or device.health.lost:
            raise DeviceLostError(
                f"{device.name} lost mid-kernel "
                f"({device.health.lost_reason})"
            )
        return result

    def describe(self) -> dict:
        lo, hi = self.launch.window(self.ndrange)
        return {
            "kernel": self.kernel.name,
            "window": (lo, hi),
            "groups": self.ndrange.total_groups,
        }


class MarkerCommand(Command):
    """Zero-cost fence; its event fires when everything before it is done."""

    command_type = CommandType.MARKER

    def run(self, queue) -> Generator:
        return None
        yield  # pragma: no cover


class CallbackCommand(Command):
    """Runs host-visible side effects at its turn in the queue.

    Optionally occupies an engine for ``duration`` first — FluidiCL status
    messages are tiny host-to-device sends followed by a board update, which
    is exactly ``CallbackCommand(fn, engine="h2d", duration=link(64B))``.
    """

    command_type = CommandType.CALLBACK

    def __init__(self, fn: Callable[[Any], None], engine: Optional[str] = None,
                 duration: float = 0.0, label: str = ""):
        if engine not in (None, "compute", "h2d", "d2h"):
            raise ValueError(f"unknown engine {engine!r}")
        self.fn = fn
        self.engine_name = engine
        self.duration = duration
        self.label = label

    def run(self, queue) -> Generator:
        device = queue.device
        # Cancelled callbacks must not run their side effects: a status
        # message from a lost device never arrives (section 5.3 analogue).
        yield from device.health.barrier()
        if self.engine_name is not None:
            resource = getattr(device, self.engine_name)
            request = resource.request()
            yield request
            try:
                if self.duration > 0:
                    yield device.engine.timeout(self.duration)
            finally:
                resource.release(request)
        elif self.duration > 0:
            yield device.engine.timeout(self.duration)
        if device.health.lost:
            raise DeviceLostError(
                f"{device.name} lost ({device.health.lost_reason})"
            )
        self.fn(queue)
        return None

    def describe(self) -> dict:
        return {"label": self.label}
