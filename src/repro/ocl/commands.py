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


def _transfer(queue, direction: str, nbytes: int, describe: dict) -> Generator:
    """Occupy the ``direction`` DMA engine for one ``nbytes`` transfer.

    Handles the fault model: stalls park the transfer at its start boundary,
    injected transient failures cost half a transfer (the point at which the
    error is noticed) and are retried with exponential backoff up to the
    device's retry budget, after which the device is declared lost.  The
    caller performs the actual data copy *after* this returns, so a retried
    transfer never exposes partially-moved data.
    """
    device = queue.device
    engine = device.engine
    health = device.health
    if (yield from health.wait_ready()):
        raise DeviceLostError(f"{device.name} lost ({health.lost_reason})")
    resource = getattr(device, direction)
    request = resource.request()
    yield request
    try:
        attempt = 0
        while True:
            if (yield from health.wait_ready()):
                raise DeviceLostError(
                    f"{device.name} lost ({health.lost_reason})"
                )
            if health.take_transfer_fault(direction):
                attempt += 1
                # The failure surfaces partway through the transfer; that
                # bus time is wasted either way.
                yield engine.timeout(device.transfer_time(nbytes) / 2.0)
                if attempt > health.max_transfer_retries:
                    health.declare_lost(
                        f"{direction} transfer failed "
                        f"{attempt} times (retries exhausted)"
                    )
                    raise DeviceLostError(
                        f"{device.name} lost ({health.lost_reason})"
                    )
                health.transfer_retries += 1
                backoff = health.retry_backoff * (2 ** (attempt - 1))
                engine.trace(
                    "fault_retry", kind="transfer", queue=queue.name,
                    device=device.name, direction=direction,
                    attempt=attempt, backoff=backoff, **describe,
                )
                yield engine.timeout(backoff)
                continue
            yield engine.timeout(device.transfer_time(nbytes))
            health.beat()
            return
    finally:
        resource.release(request)


def _barrier(health) -> Generator:
    """Wait out any stall; raise if the device is (or becomes) lost."""
    if (yield from health.wait_ready()):
        raise DeviceLostError(
            f"{health.device_name} lost ({health.lost_reason})"
        )


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
        device = queue.device
        yield from _transfer(queue, "h2d", self.nbytes, self.describe())
        data = self.source() if callable(self.source) else self.source
        self.buffer.write_from(data)
        device.stats["bytes_h2d"] += self.nbytes
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
        device = queue.device
        yield from _transfer(queue, "d2h", self.buffer.nbytes, self.describe())
        self.buffer.read_into(self.dest)
        device.stats["bytes_d2h"] += self.buffer.nbytes
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
        yield from _barrier(device.health)
        request = device.compute.request()
        yield request
        try:
            yield from _barrier(device.health)
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
        yield from _barrier(device.health)
        request = device.compute.request()
        yield request
        try:
            yield from _barrier(device.health)
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
        yield from _barrier(device.health)
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
