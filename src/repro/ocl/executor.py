"""Device-side kernel execution: waves, subkernel windows, abort protocol.

Work-groups run in *waves* of up to ``concurrent_workgroups``.  A GPU-side
FluidiCL kernel additionally consults a :class:`StatusBoard` — the simulated
analogue of the CPU-execution-status variable the paper's modified kernels
poll (Fig. 8) — and skips work-groups the CPU has already finished *and*
whose data has already landed on the GPU.

With abort checks inside loops (§6.4) a *running* wave also reacts to
status updates: the reaction is event-driven (the executor sleeps until
either the wave ends or a status message arrives) and the abort instant is
quantized up to the next loop-iteration boundary, so the modeled granularity
is exactly the transformed kernel's check granularity.  A running wave
aborts only once the status covers all of it: its slowest group sets its
length, so groups above a partial cover are computed anyway.  The launch's
last wave aborts only if that saves more time than the merges the abort
adds cost (:attr:`StatusBoard.abort_price`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Tuple

from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.sim.sync import Gate
from repro.sim.timebase import from_ticks

__all__ = ["StatusBoard", "LaunchConfig", "KernelRunResult", "run_kernel"]


class StatusBoard:
    """CPU completion status as visible *on the GPU*.

    ``frontier`` is the lowest flattened work-group ID F such that every
    work-group with ID >= F has been executed on the CPU **and** its
    computed data has arrived at the GPU (status strictly follows data on
    the in-order ``hd`` queue, paper §4.2).  It starts at ``total_groups``
    (nothing complete) and only ever decreases.
    """

    def __init__(self, engine, total_groups: int, kernel_id: int = 0):
        self.engine = engine
        self.total_groups = total_groups
        self.kernel_id = kernel_id
        self.frontier = total_groups
        #: set when the kernel is finalized; late messages are discarded
        #: (paper §5.3, stale-data protection)
        self.finalized = False
        #: fired on every accepted update; the executor waits on this
        self.gate = Gate(engine, name=f"status:k{kernel_id}")
        #: seconds of the merges that aborting the running last wave
        #: ``[lo, hi)`` would add, as ``abort_price(lo, hi)``; ``None``
        #: prices every abort at 0, so every covered wave aborts
        self.abort_price: Optional[Callable[[int, int], float]] = None

    def update(self, frontier: int) -> bool:
        """Record an arriving status message; returns False if discarded."""
        if self.finalized:
            return False
        if not 0 <= frontier <= self.total_groups:
            raise ValueError(
                f"frontier {frontier} outside [0, {self.total_groups}]"
            )
        if frontier >= self.frontier:
            # No new information.  A *higher* frontier is an out-of-date
            # message (unreachable with in-order queues, but guard anyway);
            # an *equal* one happens with several worker fronts, when a
            # delivery fires while the committed frontier is stuck behind
            # an unlanded foreign window.  Either way: discard.
            return False
        self.frontier = frontier
        self.gate.fire(frontier)
        return True

    def finalize(self) -> None:
        self.finalized = True
        # The price refers back to the kernel's state; no wave asks for it
        # once the kernel is finalized.
        self.abort_price = None

    def covered(self, fid: int) -> bool:
        """Has this work-group been completed (with data) by the CPU?"""
        return fid >= self.frontier

    @property
    def cpu_completed_groups(self) -> int:
        return self.total_groups - self.frontier


@dataclass
class LaunchConfig:
    """Runtime parameters of one (sub)kernel launch."""

    #: flattened work-group window to execute: [fid_start, fid_end)
    fid_start: int = 0
    fid_end: Optional[int] = None
    #: CPU status the (GPU) kernel polls; None for plain launches
    status_board: Optional[StatusBoard] = None
    #: FluidiCL kernel id (versioning / tracing)
    kernel_id: int = 0

    def window(self, ndrange: NDRange) -> Tuple[int, int]:
        end = self.fid_end if self.fid_end is not None else ndrange.total_groups
        if not 0 <= self.fid_start <= end <= ndrange.total_groups:
            raise ValueError(
                f"launch window [{self.fid_start}, {end}) outside NDRange "
                f"with {ndrange.total_groups} groups"
            )
        return self.fid_start, end


@dataclass
class KernelRunResult:
    """What one launch actually did on its device."""

    #: fid ranges whose bodies this device executed
    executed: List[Tuple[int, int]] = field(default_factory=list)
    #: work-groups skipped or aborted because the CPU beat the device to them
    aborted_groups: int = 0
    #: True when the launch ended early because the two fronts met
    ended_early: bool = False
    start_time: float = 0.0
    end_time: float = 0.0
    split_used: bool = False
    waves: int = 0
    #: True when the device was lost mid-launch; ``executed`` then holds
    #: only the waves that completed before the loss
    device_lost: bool = False
    #: True when a status covered the running last wave and the launch
    #: ran it whole, because the abort would have added merges costing at
    #: least the time it saved
    abort_declined: bool = False

    @property
    def executed_groups(self) -> int:
        return sum(hi - lo for lo, hi in self.executed)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def run_kernel(
    device,
    kernel: Kernel,
    ndrange: NDRange,
    launch: LaunchConfig,
) -> Generator:
    """Simulate one launch on ``device``; returns a :class:`KernelRunResult`.

    Must be driven inside a simulation process that has already acquired the
    device's compute engine (the command queue does this).
    """
    engine = device.engine
    spec = device.spec
    health = device.health
    start, end = launch.window(ndrange)
    variant = kernel.variant
    board = launch.status_board if variant.abort_checks else None
    t_wg = kernel.wg_seconds(spec)
    # Irregular workloads attach per-group cost multipliers; a wave's
    # duration then follows its most expensive resident group (the SIMT
    # analogue: the wave retires when its slowest work-group does).  The
    # ``weights is None`` fast path keeps the dense regime's float
    # arithmetic bit-identical.
    weights = kernel.spec.group_weights
    if weights is not None and len(weights) != ndrange.total_groups:
        raise ValueError(
            f"kernel {kernel.spec.name!r} declares {len(weights)} group "
            f"weights but the NDRange has {ndrange.total_groups} groups"
        )
    result = KernelRunResult(start_time=engine.now)

    n_groups = end - start
    if n_groups == 0:
        result.end_time = engine.now
        return result

    # Fault model: stalls and loss are observed at wave boundaries — a wave
    # already issued runs to completion, matching the check granularity of
    # everything else in this executor.
    if (yield from health.wait_ready()):
        result.device_lost = True
        result.end_time = engine.now
        return result

    # -- CPU work-group splitting (paper §6.3) -------------------------------
    if variant.wg_split and board is None and n_groups < spec.compute_units:
        if weights is None:
            work = n_groups * t_wg
        else:
            # Split groups run work-item-parallel, so total work (not the
            # max) is what the compute units share.
            work = sum(weights[start:end]) * t_wg
        duration = (
            spec.wave_overhead
            + work / (spec.compute_units * spec.wg_split_efficiency)
        )
        yield engine.timeout(duration)
        result.executed.append((start, end))
        result.split_used = True
        result.waves = 1
        health.beat()
        _finish(device, kernel, ndrange, result, engine.now)
        return result

    # -- wave execution -----------------------------------------------------
    i = start
    while i < end:
        if (yield from health.wait_ready()):
            result.device_lost = True
            break
        frontier = board.frontier if board is not None else end
        if frontier <= i:
            # Every remaining work-group is already CPU-complete: the
            # kernel is done (Fig. 6, "kernel completed").
            result.aborted_groups += end - i
            result.ended_early = True
            break
        j = min(i + spec.concurrent_workgroups, min(end, frontier))
        i_next = min(i + spec.concurrent_workgroups, end)
        # Work-groups covered by the CPU are skipped by the start-of-group
        # check; they cost (essentially) nothing.
        result.aborted_groups += i_next - j

        result.waves += 1
        wave_t_wg = t_wg if weights is None else t_wg * max(weights[i:j])
        if board is not None and variant.abort_in_loops:
            # The last wave: no group is issued after it, because it ends
            # the window or the status already covers the groups above it.
            last = i_next == end or j < i_next
            aborted = yield from _monitored_wave(
                engine, spec, board, wave_t_wg, variant.abort_granularity,
                i, j, last, result,
            )
            if aborted:
                result.aborted_groups += (j - i) + (end - i_next)
                result.ended_early = True
                break
            result.executed.append((i, j))
        else:
            yield engine.timeout(spec.wave_overhead + wave_t_wg)
            result.executed.append((i, j))
        health.beat()
        i = i_next

    _finish(device, kernel, ndrange, result, engine.now)
    return result


def _monitored_wave(engine, spec, board, t_wg, granularity, i, j, last,
                    result):
    """One wave ``[i, j)`` whose work-groups re-check the CPU status
    inside loops; returns True if the wave was aborted.

    Sleeps until the wave completes or a status update lands, whichever is
    first.  A status that covers only the top of the wave aborts nothing:
    the wave's slowest group sets its length either way.  Once the status
    covers the whole wave, the abort takes effect at the next
    loop-iteration boundary and the wave (plus everything after it) is
    abandoned.  On the launch's ``last`` wave the abort must also pay: if
    the merges it adds (``board.abort_price``) cost at least the time from
    that boundary to the wave's end, the wave runs to its end instead.
    """
    # All wave-deadline arithmetic is integer engine ticks: the re-check
    # boundaries are exact multiples of ``check_ticks`` and the wave-end
    # test is ``remaining <= 0`` on integers — the pre-tick float version
    # needed a ``- 1e-12`` ceil fudge and a ``<= 1e-15`` end epsilon here.
    yield engine.timeout(spec.wave_overhead)
    t_wg_ticks = engine.delay_ticks(t_wg)
    check_ticks = max(1, t_wg_ticks // max(1, granularity))
    wave_start = engine.now_ticks
    wave_end = wave_start + t_wg_ticks
    while True:
        remaining = wave_end - engine.now_ticks
        if board.frontier <= i:
            elapsed = engine.now_ticks - wave_start
            # Abort at the next loop-iteration boundary (integer ceil-div).
            quantized = min(-(-elapsed // check_ticks) * check_ticks,
                            t_wg_ticks)
            saved = t_wg_ticks - quantized
            price = (board.abort_price(i, j)
                     if last and board.abort_price is not None else 0.0)
            if price and engine.delay_ticks(price) >= saved:
                result.abort_declined = True
                engine.trace("abort_declined", kernel_id=board.kernel_id,
                             saved=from_ticks(saved), price=price)
                if remaining > 0:
                    yield engine.timeout_ticks(remaining)
                return False
            if quantized > elapsed:
                yield engine.timeout_ticks(quantized - elapsed)
            return True
        if remaining <= 0:
            return False
        yield engine.any_of(
            [engine.timeout_ticks(remaining), board.gate.wait()]
        )


def _finish(device, kernel: Kernel, ndrange: NDRange, result: KernelRunResult,
            now: float) -> None:
    for lo, hi in result.executed:
        kernel.run_span(ndrange, lo, hi)
    device.stats["workgroups_executed"] += result.executed_groups
    device.stats["workgroups_aborted"] += result.aborted_groups
    result.end_time = now
