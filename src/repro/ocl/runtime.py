"""The runtime interface host programs target, plus the single-device runtime.

Every execution backend in the repository — the vendor-direct single-device
baselines, FluidiCL, the static partitioner and SOCL — implements
:class:`AbstractRuntime`.  A Polybench host program is written once against
this interface and runs unchanged on all of them, which is the reproduction
of the paper's "each API is replaced with the corresponding FluidiCL API,
with no change in arguments" property (section 5).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.hw.machine import Machine
from repro.kernels.dsl import KernelSpec
from repro.kernels.transforms import plain_variant
from repro.ocl.buffer import Buffer
from repro.ocl.enums import MemFlag
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Context, Platform

__all__ = ["AbstractRuntime", "RunStats", "SingleDeviceRuntime"]

KernelVersions = Union[KernelSpec, Sequence[KernelSpec]]


@dataclass
class RunStats:
    """Aggregate behaviour of one runtime over a host program run."""

    kernels_enqueued: int = 0
    writes: int = 0
    reads: int = 0
    #: named run counters, a plain dict; FluidiCL registers every name it
    #: counts (``merges``, ``subkernels_launched``, ...) as zero up front
    extra: Dict[str, Any] = field(default_factory=dict)


class AbstractRuntime(abc.ABC):
    """OpenCL-host-API-shaped interface over some execution strategy."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.stats = RunStats()

    @property
    def engine(self):
        return self.machine.engine

    @property
    def now(self) -> float:
        return self.machine.engine.now

    # -- the OpenCL-shaped surface -------------------------------------------
    @abc.abstractmethod
    def create_buffer(self, name: str, shape, dtype,
                      flags: MemFlag = MemFlag.READ_WRITE) -> Any:
        """``clCreateBuffer``: returns an opaque buffer handle."""

    @abc.abstractmethod
    def enqueue_write_buffer(self, handle: Any, host_array: np.ndarray) -> None:
        """``clEnqueueWriteBuffer`` from a host array."""

    @abc.abstractmethod
    def enqueue_nd_range_kernel(self, versions: KernelVersions, ndrange: NDRange,
                                args: Mapping[str, Any]) -> None:
        """``clEnqueueNDRangeKernel``.

        ``versions`` is one :class:`KernelSpec` or a sequence of functionally
        identical alternates (paper section 6.6); runtimes without online
        profiling use the first.
        """

    @abc.abstractmethod
    def enqueue_read_buffer(self, handle: Any, host_array: np.ndarray) -> None:
        """``clEnqueueReadBuffer`` into a host array."""

    @abc.abstractmethod
    def finish(self) -> None:
        """``clFinish``: block host execution until all work completes."""

    def release(self) -> None:
        """Free device resources at the end of the host program."""

    # -- helpers ----------------------------------------------------------------
    @staticmethod
    def _as_versions(versions: KernelVersions) -> List[KernelSpec]:
        if isinstance(versions, KernelSpec):
            return [versions]
        out = list(versions)
        if not out:
            raise ValueError("empty kernel version list")
        names = {spec.name for spec in out}
        if len(names) != 1:
            raise ValueError(f"kernel versions must share a name, got {names}")
        return out


class SingleDeviceRuntime(AbstractRuntime):
    """The vendor runtime used directly — the paper's CPU-only / GPU-only
    baselines ("we run each benchmark using the vendor runtimes directly",
    section 8)."""

    def __init__(self, machine: Machine, device_kind, platform: Optional[Platform] = None):
        super().__init__(machine)
        self.platform = platform or Platform(machine)
        self.device = self.platform.device_by_kind(device_kind)
        self.context: Context = self.platform.create_context([self.device])
        self.queue = self.context.create_queue(self.device, name=f"app@{self.device.name}")

    def create_buffer(self, name: str, shape, dtype,
                      flags: MemFlag = MemFlag.READ_WRITE) -> Buffer:
        self.machine.host_api_call()
        return self.context.create_buffer(self.device, shape, dtype, flags, name)

    def enqueue_write_buffer(self, handle: Buffer, host_array: np.ndarray) -> None:
        # Frozen at the call, as FluidiCL does: later host writes to
        # ``host_array`` must not reach the device.
        frozen = handle.freeze(host_array)
        self.machine.host_api_call()
        self.queue.enqueue_write_buffer(handle, frozen)
        self.stats.writes += 1

    def enqueue_nd_range_kernel(self, versions: KernelVersions, ndrange: NDRange,
                                args: Mapping[str, Any]) -> None:
        self.machine.host_api_call()
        spec = self._as_versions(versions)[0]
        kernel = Kernel(plain_variant(spec), args)
        self.queue.enqueue_nd_range_kernel(kernel, ndrange)
        self.stats.kernels_enqueued += 1

    def enqueue_read_buffer(self, handle: Buffer, host_array: np.ndarray) -> None:
        handle.check_host(host_array)
        self.machine.host_api_call()
        self.queue.enqueue_read_buffer(handle, host_array)
        self.stats.reads += 1

    def finish(self) -> None:
        self.machine.host_api_call()
        self.machine.run_until(self.queue.finish_event())

    def release(self) -> None:
        self.context.release()
