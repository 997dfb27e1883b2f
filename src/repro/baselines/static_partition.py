"""Hand-partitioned static splits and the OracleSP baseline (§9.1).

:class:`StaticPartitionRuntime` models what a careful programmer would write
by hand for a *fixed* GPU work share ``x``: every kernel launches its first
``x`` fraction of flattened work-groups on the GPU and the rest on the CPU,
concurrently, then exchanges exactly the partial regions each side computed.
Unlike FluidiCL, there is no adaptation, no original-copy buffers and no
diff+merge kernel — region transfers are direct — so at its best split this
baseline is *cheaper* per kernel than FluidiCL, which is exactly why
OracleSP is a strong oracle.

``oracle_static_partition`` sweeps ``x`` from 0% to 100% in 10% steps and
reports the best total time (the paper's OracleSP bar), and ``split_sweep``
returns the whole curve (Figs. 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.hw.machine import Machine, build_machine
from repro.kernels.transforms import cpu_subkernel_variant, plain_variant
from repro.ocl.enums import MemFlag
from repro.ocl.executor import LaunchConfig
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform
from repro.ocl.runtime import AbstractRuntime, KernelVersions
from repro.polybench.common import AppResult, PolybenchApp

__all__ = [
    "StaticPartitionRuntime",
    "OracleResult",
    "oracle_static_partition",
    "split_sweep",
]


class _DualBuffer:
    """A buffer mirrored on both devices for the static partitioner."""

    def __init__(self, name, gpu_buffer, cpu_buffer):
        self.name = name
        self.gpu = gpu_buffer
        self.cpu = cpu_buffer

    @property
    def shape(self):
        return self.gpu.shape

    @property
    def dtype(self):
        return self.gpu.dtype

    @property
    def nbytes(self):
        return self.gpu.nbytes


class StaticPartitionRuntime(AbstractRuntime):
    """Fixed x%-GPU / (100-x)%-CPU execution of every kernel."""

    def __init__(self, machine: Machine, gpu_fraction: float,
                 platform: Optional[Platform] = None):
        super().__init__(machine)
        if not 0.0 <= gpu_fraction <= 1.0:
            raise ValueError("gpu_fraction must be within [0, 1]")
        self.gpu_fraction = gpu_fraction
        self.platform = platform or Platform(machine)
        self.gpu_device = self.platform.gpu
        self.cpu_device = self.platform.cpu
        self.context = self.platform.create_context()
        self.gpu_queue = self.context.create_queue(self.gpu_device, "static-gpu")
        self.cpu_queue = self.context.create_queue(self.cpu_device, "static-cpu")

    # -- API --------------------------------------------------------------
    def create_buffer(self, name: str, shape, dtype,
                      flags: MemFlag = MemFlag.READ_WRITE) -> _DualBuffer:
        self.machine.host_api_call()
        use_gpu = self.gpu_fraction > 0.0
        use_cpu = self.gpu_fraction < 1.0
        gpu_buf = (
            self.context.create_buffer(self.gpu_device, shape, dtype, flags,
                                       f"{name}@gpu") if use_gpu else None
        )
        cpu_buf = (
            self.context.create_buffer(self.cpu_device, shape, dtype, flags,
                                       f"{name}@cpu") if use_cpu else None
        )
        # Degenerate fractions keep a single copy; grab whichever exists.
        return _DualBuffer(name, gpu_buf or cpu_buf, cpu_buf or gpu_buf)

    def enqueue_write_buffer(self, handle: _DualBuffer,
                             host_array: np.ndarray) -> None:
        self.machine.host_api_call()
        snapshot = np.array(host_array, copy=True)
        if self.gpu_fraction > 0.0:
            self.gpu_queue.enqueue_write_buffer(handle.gpu, snapshot)
        if self.gpu_fraction < 1.0:
            self.cpu_queue.enqueue_write_buffer(handle.cpu, snapshot)
        self.stats.writes += 1

    def enqueue_nd_range_kernel(self, versions: KernelVersions, ndrange: NDRange,
                                args: Mapping[str, Any]) -> None:
        self.machine.host_api_call()
        spec = self._as_versions(versions)[0]
        spec.bind_check(args)
        # Quiesce both queues so the pre-images below reflect the actual
        # pre-kernel buffer contents (pending host writes included).
        self.machine.run_until(self.engine.all_of([
            self.gpu_queue.finish_event(), self.cpu_queue.finish_event()
        ]))
        total = ndrange.total_groups
        gpu_groups = round(self.gpu_fraction * total)
        out_handles = [args[a.name] for a in spec.out_args]

        gpu_args = {
            a.name: (args[a.name].gpu if a.is_buffer else args[a.name])
            for a in spec.args
        }
        cpu_args = {
            a.name: (args[a.name].cpu if a.is_buffer else args[a.name])
            for a in spec.args
        }

        # Pristine copies for exact data reconciliation afterwards; a manual
        # implementation knows the output mapping, so no time is charged.
        pre_images = {
            h.name: (h.gpu.snapshot() if self.gpu_fraction > 0 else h.cpu.snapshot())
            for h in out_handles
        }

        events = []
        if gpu_groups > 0:
            kernel = Kernel(plain_variant(spec), gpu_args)
            events.append(self.gpu_queue.enqueue_nd_range_kernel(
                kernel, ndrange, LaunchConfig(fid_start=0, fid_end=gpu_groups)
            ))
        if gpu_groups < total:
            kernel = Kernel(cpu_subkernel_variant(spec, wg_split=True), cpu_args)
            events.append(self.cpu_queue.enqueue_nd_range_kernel(
                kernel, ndrange,
                LaunchConfig(fid_start=gpu_groups, fid_end=total),
            ))
        done = self.engine.all_of([e.done for e in events])
        self.machine.run_until(done)

        self._exchange_partials(out_handles, pre_images, gpu_groups, total)
        self.stats.kernels_enqueued += 1

    def _exchange_partials(self, out_handles: List[_DualBuffer],
                           pre_images: Dict[str, np.ndarray],
                           gpu_groups: int, total: int) -> None:
        """Swap the computed regions so both copies hold the full result.

        Time charged: each direction moves exactly its partner's computed
        fraction of the buffer.  Data reconciliation uses the pre-image diff
        (free), which is exact because both devices compute identical values.
        """
        if gpu_groups in (0, total):
            return  # single device owns everything already
        gpu_frac = gpu_groups / total
        for handle in out_handles:
            pre = pre_images[handle.name]
            cpu_part = int(round((1.0 - gpu_frac) * handle.nbytes))
            gpu_part = handle.nbytes - cpu_part
            ev_up = self.gpu_queue.enqueue_callback(
                lambda _q, h=handle, p=pre: _apply_diff(h.gpu.array, h.cpu.array, p),
                engine="h2d",
                duration=self.gpu_device.link.transfer_time(cpu_part),
                label=f"static-up:{handle.name}",
            )
            ev_down = self.cpu_queue.enqueue_callback(
                lambda _q, h=handle, p=pre: _apply_diff(h.cpu.array, h.gpu.array, p),
                engine="h2d",
                duration=(
                    self.gpu_device.link.transfer_time(gpu_part)
                    + self.cpu_device.link.transfer_time(gpu_part)
                ),
                label=f"static-down:{handle.name}",
            )
            self.machine.run_until(self.engine.all_of([ev_up.done, ev_down.done]))

    def enqueue_read_buffer(self, handle: _DualBuffer,
                            host_array: np.ndarray) -> None:
        self.machine.host_api_call()
        if self.gpu_fraction > 0.0:
            event = self.gpu_queue.enqueue_read_buffer(handle.gpu, host_array)
        else:
            event = self.cpu_queue.enqueue_read_buffer(handle.cpu, host_array)
        self.machine.run_until(event.done)
        self.stats.reads += 1

    def finish(self) -> None:
        self.machine.host_api_call()
        self.machine.run_until(self.engine.all_of([
            self.gpu_queue.finish_event(), self.cpu_queue.finish_event()
        ]))

    def release(self) -> None:
        self.context.release()


def _apply_diff(dest: np.ndarray, src: np.ndarray, pre_image: np.ndarray) -> None:
    changed = src != pre_image
    dest[changed] = src[changed]


# ---------------------------------------------------------------------------
# Sweeps and the oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    """Best static split found by the OracleSP sweep."""

    best_fraction: float
    best_time: float
    #: (gpu_fraction, total seconds) for every point of the sweep
    sweep: List[Tuple[float, float]] = field(default_factory=list)


def split_sweep(app: PolybenchApp, fractions=None,
                inputs: Optional[Dict[str, np.ndarray]] = None,
                check: bool = False) -> List[Tuple[float, float]]:
    """Total running time for each static GPU fraction (Figs. 2/3 data)."""
    if fractions is None:
        fractions = [i / 10 for i in range(11)]
    if inputs is None:
        inputs = app.fresh_inputs()
    points = []
    for fraction in fractions:
        machine = build_machine()
        runtime = StaticPartitionRuntime(machine, fraction)
        result: AppResult = app.execute(runtime, inputs=inputs, check=check)
        if check and not result.correct:
            raise AssertionError(
                f"static split {fraction} produced wrong results for {app.name}"
            )
        points.append((fraction, result.elapsed))
    return points


def oracle_static_partition(app: PolybenchApp,
                            inputs: Optional[Dict[str, np.ndarray]] = None) -> OracleResult:
    """The paper's OracleSP: best static split, found by exhaustive sweep."""
    sweep = split_sweep(app, inputs=inputs)
    best_fraction, best_time = min(sweep, key=lambda p: p[1])
    return OracleResult(best_fraction, best_time, sweep)
