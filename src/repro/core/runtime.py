"""The FluidiCL runtime: OpenCL-shaped API, cooperative device-set engine.

This is the software layer of the paper's Fig. 4: it sits on top of the
vendor runtimes (one per device, each with a discrete address space) and
exposes the plain single-device OpenCL API.  Every
``enqueue_nd_range_kernel`` call executes the kernel on *all* devices of
the set at once (§4), with all data management — original-copy buffers,
worker→anchor result shipping, diff+merge, device-to-host read-back,
version and location tracking — handled transparently.

Device 0 is the **anchor** front: it runs the whole NDRange from
flattened group ID 0 upward with the fluidic abort check, exactly like
the classic GPU.  The remaining devices are **worker** fronts claiming
shrinking windows off the shared top frontier (see
:mod:`repro.core.deviceset`).  The paper's CPU+GPU pair is the
two-device case of this one code path.

Kernel execution calls are blocking, as in the paper (§7); the
device-to-host read-back of results proceeds in the background, overlapped
with whatever the host does next (§5.5/§5.6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.analysis.analyzer import analyze_kernel
from repro.analysis.diagnostics import LintError, LintReport, Severity
from repro.core.buffers import FluidiBuffer
from repro.core.config import FluidiCLConfig
from repro.core.deviceset import DeviceSet, FrontLedger
from repro.core.merge import build_merge_kernel, merge_ndrange
from repro.core.pool import BufferPool
from repro.core.profiling_opt import OnlineKernelProfiler
from repro.core.scheduler import CpuScheduler
from repro.core.stats import KernelRecord
from repro.core.watchdog import KernelWatchdog
from repro.hw.machine import Machine
from repro.hw.specs import DeviceKind
from repro.kernels.dsl import KernelSpec
from repro.kernels.transforms import gpu_fluidic_variant, plain_variant
from repro.ocl.buffer import Buffer
from repro.ocl.enums import MemFlag
from repro.ocl.executor import LaunchConfig, StatusBoard
from repro.ocl.health import DeviceLostError
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform
from repro.ocl.runtime import AbstractRuntime, KernelVersions

__all__ = ["FluidiCLRuntime"]


@dataclass
class _KernelPlan:
    """Everything one cooperative kernel execution needs to coordinate."""

    kernel_id: int
    specs: List[KernelSpec]
    ndrange: NDRange
    args: Dict[str, Any]
    out_fbuffers: List[FluidiBuffer]
    board: StatusBoard
    gpu_event: Any
    #: per-worker landing buffers on the anchor for shipped data, keyed by
    #: front index then arg name
    landing: Dict[int, Dict[str, Buffer]]
    #: pristine copies of the original contents, by arg name
    orig: Dict[str, Buffer]
    #: one online profiler per worker front, keyed by front index
    profilers: Dict[int, OnlineKernelProfiler]
    record: KernelRecord
    #: shared span-claim ledger for the worker fronts (§4, Fig. 7)
    ledger: FrontLedger
    #: version each worker copy must reach before subkernels start (§5.3)
    required_cpu_versions: Dict[FluidiBuffer, int] = field(default_factory=dict)

    def front_args(self, spec: KernelSpec, index: int) -> Dict[str, Any]:
        return {
            a.name: (self.args[a.name].copies[index] if a.is_buffer
                     else self.args[a.name])
            for a in spec.args
        }


class FluidiCLRuntime(AbstractRuntime):
    """Cooperative N-device execution behind the single-device OpenCL API."""

    def __init__(self, machine: Machine, config: Optional[FluidiCLConfig] = None,
                 platform: Optional[Platform] = None):
        super().__init__(machine)
        self.config = config or FluidiCLConfig()
        self.platform = platform or Platform(machine)
        self.device_set = DeviceSet(self.platform.devices)
        self.gpu_device = self.device_set.anchor.device
        # The CPU-path device: the last CPU-kind device of the set, or the
        # last device outright (pure-GPU sets like big.little).  Host reads
        # prefer its copy when it is current (location tracking, §6.2).
        cpu_index = len(self.platform.devices) - 1
        for i, device in enumerate(self.platform.devices):
            if device.spec.kind is DeviceKind.CPU:
                cpu_index = i
        self._cpu_index = cpu_index
        self.cpu_device = self.platform.devices[cpu_index]
        self.context = self.platform.create_context()
        # The application queue plus the two extra transfer queues (§5.4).
        self.app_queue = self.context.create_queue(self.gpu_device, "fluidicl-app")
        self.hd_queue = self.context.create_queue(self.gpu_device, "fluidicl-hd")
        self.dh_queue = self.context.create_queue(self.gpu_device, "fluidicl-dh")
        # Worker fronts get an in-order compute queue each, plus an I/O
        # queue: host reads of a worker copy must not serialize behind
        # (possibly stale) subkernels, so they travel separately with
        # explicit event dependencies on the writes they need.
        for front in self.device_set.workers:
            qname = f"fluidicl-w{front.index}"
            front.queue = self.context.create_queue(front.device, qname)
            front.io_queue = self.context.create_queue(front.device,
                                                       f"{qname}-io")
        if self.device_set.workers:
            if cpu_index != 0:
                self.primary_front = self.device_set.fronts[cpu_index]
            else:
                self.primary_front = self.device_set.workers[0]
        else:
            self.primary_front = self.device_set.anchor
        self.pool = BufferPool(self.gpu_device, enabled=self.config.use_buffer_pool)
        self._versions = itertools.count(1)
        self.buffers: List[FluidiBuffer] = []
        self.records: List[KernelRecord] = []
        self._dh_processes: List[Any] = []
        #: completion events of merge/commit work in flight on ``app_queue``;
        #: :meth:`finish` and :meth:`drain` wait on (and then prune) these
        self._pending_commits: List[Any] = []
        # Every run counter, registered as zero so each name is present
        # (and exported) whether or not its event ever happens.
        self.stats.extra.update(
            gpu_input_refreshes=0,
            front_input_refreshes=0,
            stale_dh_discards=0,
            merges=0,
            subkernels_launched=0,
            status_messages=0,
            kernels_cpu_complete=0,
            kernels_merged=0,
            kernels_gpu_only=0,
            kernels_failover=0,
            faults_injected=0,
            failovers=0,
            watchdog_trips=0,
            lint_findings=0,
        )
        for device in self.platform.devices:
            self.stats.extra.update({
                f"reads_from[{device.name}]": 0,
                f"watchdog_trips[{device.name}]": 0,
            })
        # Resilience policy (see repro.faults / DESIGN.md): bounded retry
        # for transiently failing transfers on every device.
        for device in self.platform.devices:
            device.health.max_transfer_retries = self.config.transfer_max_retries
        #: a worker-front loss is reported as one failover, at the end of
        #: the first kernel it affects — once per front, not per kernel
        self._front_loss_traced: set = set()
        #: lint findings already surfaced, so host programs looping over the
        #: same kernel emit each diagnosis once per runtime, not per launch
        self._lint_seen: set = set()

    # ------------------------------------------------------------------
    # OpenCL-shaped API
    # ------------------------------------------------------------------
    def create_buffer(self, name: str, shape, dtype,
                      flags: MemFlag = MemFlag.READ_WRITE) -> FluidiBuffer:
        """``clCreateBuffer``: allocates mirrors on every device (§4.1)."""
        self.machine.host_api_call()
        copies = [
            self.context.create_buffer(front.device, shape, dtype, flags,
                                       f"{name}@{front.device.name}")
            for front in self.device_set.fronts
        ]
        fbuf = FluidiBuffer(self.engine, name, copies, flags=flags)
        self.buffers.append(fbuf)
        return fbuf

    def enqueue_write_buffer(self, handle: FluidiBuffer,
                             host_array: np.ndarray) -> None:
        """``clEnqueueWriteBuffer``: one host call, one transfer per device.

        The host data is frozen once, at the call; every device copy
        aliases that snapshot until a kernel writes it (see
        :class:`~repro.ocl.buffer.Buffer`).
        """
        snapshot = handle.copies[0].freeze(host_array)
        self.machine.host_api_call()
        version = next(self._versions)
        # A lost device gets no copy — and, crucially, must not be marked
        # current, or later reads would serve stale data from it.
        ok = [not front.lost for front in self.device_set.fronts]
        if not any(ok):
            raise DeviceLostError("all devices lost; nowhere to write")
        if ok[0]:
            event = self.app_queue.enqueue_write_buffer(handle.copies[0],
                                                        snapshot)
            # Host reads on the anchor path must quiesce behind this write:
            # it travels on ``app_queue`` while reads use ``dh_queue``, so
            # a transfer-fault retry here could otherwise be overtaken.
            handle.record_host_write(0, event)
        for front in self.device_set.workers:
            if ok[front.index]:
                event = front.queue.enqueue_write_buffer(
                    handle.copies[front.index], snapshot
                )
                handle.record_host_write(front.index, event)
        handle.commit_host_write(version, mask=ok)
        self.engine.trace("buffer_write", buffer=handle.name, version=version,
                          nbytes=handle.nbytes)
        self.stats.writes += 1

    def enqueue_read_buffer(self, handle: FluidiBuffer,
                            host_array: np.ndarray) -> None:
        """Blocking ``clEnqueueReadBuffer`` with location tracking (§6.2).

        If the most recent data is already on the CPU-path front (a
        front-complete kernel, or a finished device-to-host read-back), no
        interconnect transfer is issued at all.
        """
        handle.copies[0].check_host(host_array)
        self.machine.host_api_call()
        primary = self._cpu_index
        use_cpu_copy = primary != 0 and handle.current(primary) and (
            self.config.location_tracking or not handle.current(0)
        )
        if use_cpu_copy:
            # Worker copies are written by host/DH writes *and* by
            # subkernels on the in-order compute queue; the read travels on
            # the I/O queue, so it must carry explicit dependencies on both
            # kinds of writer — a stale subkernel may still be executing
            # even though the version tracking says "current".
            self._quiesce_copy(handle, primary)
            event = self.primary_front.io_queue.enqueue_read_buffer(
                handle.copies[primary], host_array
            )
            device = self.cpu_device
        elif handle.current(0):
            # The anchor copy is written on ``app_queue`` (host writes,
            # merges) while this read uses ``dh_queue``: quiesce the
            # in-flight writers or a delayed write could be overtaken.
            self._quiesce_copy(handle, 0)
            event = self.dh_queue.enqueue_read_buffer(handle.copies[0],
                                                      host_array)
            device = self.gpu_device
        else:
            # N-device sets: some other worker front may hold the only
            # current copy (e.g. it front-completed the last kernel).
            for front in reversed(self.device_set.workers):
                if front.index != primary and handle.current(front.index):
                    self._quiesce_copy(handle, front.index)
                    event = front.io_queue.enqueue_read_buffer(
                        handle.copies[front.index], host_array
                    )
                    device = front.device
                    break
            else:
                raise RuntimeError(
                    f"buffer {handle.name!r} has no coherent copy anywhere"
                )
        self.stats.extra[f"reads_from[{device.name}]"] += 1
        self.engine.trace("buffer_read", buffer=handle.name,
                          source=device.name, nbytes=handle.nbytes,
                          version=handle.latest)
        KernelWatchdog(self, device, event.done, self.config.watchdog_timeout,
                       label=f"read {handle.name}")
        self.machine.run_until(event.done)
        if event.cancelled:
            # Never hand back the (zero-filled) destination as if it were
            # data: the source device died under the read.
            raise DeviceLostError(
                f"read of {handle.name!r} cancelled: {event.error}"
            )
        self.stats.reads += 1

    def _quiesce_copy(self, handle: FluidiBuffer, index: int) -> None:
        """Wait until every in-flight writer of copy ``index`` has finished."""
        pending = handle.quiesce_events(index)
        if not pending:
            return
        if len(pending) == 1:
            # one writer: wait on it directly, no AllOf wrapper event
            self.machine.run_until(pending[0])
        else:
            self.machine.run_until(self.engine.all_of(pending))

    def finish(self) -> None:
        """``clFinish`` on the application-visible work.

        Waits for the anchor-side queues.  A *stale* worker subkernel
        (launched just before its kernel completed elsewhere) keeps running
        in the background and is intentionally not joined — its results
        are discarded and the host program never observes it, matching the
        paper's non-joined scheduler pthread.  Use :meth:`drain` to wait
        for literally everything (tests do).
        """
        self.machine.host_api_call()
        events = [
            self.app_queue.finish_event(),
            self.hd_queue.finish_event(),
            self.dh_queue.finish_event(),
        ]
        # Merge/commit work is enqueued on ``app_queue`` by
        # ``_merge_and_commit``; its completion events are tracked
        # explicitly so ``finish`` covers a commit that is still in flight
        # regardless of how it was enqueued relative to this marker.
        events += [e for e in self._pending_commits if not e.triggered]
        self.machine.run_until(self.engine.all_of(events))
        self._prune_background()

    def drain(self) -> None:
        """Wait for every queue and background thread to go idle."""
        events = [
            self.app_queue.finish_event(),
            self.hd_queue.finish_event(),
            self.dh_queue.finish_event(),
        ]
        for front in self.device_set.workers:
            events.append(front.queue.finish_event())
            events.append(front.io_queue.finish_event())
        events += [e for e in self._pending_commits if not e.triggered]
        pending = [p for p in self._dh_processes if not p.triggered]
        self.machine.run_until(self.engine.all_of(events + pending))
        self._prune_background()

    def _prune_background(self) -> None:
        """Drop completed dh-threads and commit events from the books.

        Without this, a ``finish()``-only workload (the common host-program
        shape) accumulates one triggered process per kernel for the life of
        the runtime.
        """
        self._dh_processes = [p for p in self._dh_processes if not p.triggered]
        self._pending_commits = [e for e in self._pending_commits
                                 if not e.triggered]

    def release(self) -> None:
        self.pool.drain()
        self.context.release()

    # ------------------------------------------------------------------
    # Fluidity lint gate (repro.analysis; DESIGN.md "Static kernel analysis")
    # ------------------------------------------------------------------
    def _lint_gate(self, specs: List[KernelSpec]) -> None:
        """Statically analyze every kernel version before cooperative launch.

        ``config.lint`` selects the posture: ``"warn"`` (default) hands
        each report to :meth:`emit_lint`; ``"strict"`` additionally raises
        :class:`LintError` when any version is not fluidic-safe —
        partitioning it across devices (§4, Fig. 7) could corrupt results;
        ``"off"`` skips the analysis entirely.
        """
        if self.config.lint == "off":
            return
        reports = [
            analyze_kernel(spec, abort_in_loops=self.config.abort_in_loops,
                           loop_unroll=self.config.loop_unroll)
            for spec in specs
        ]
        for report in reports:
            self.emit_lint(report)
        if self.config.lint == "strict" and any(
                not r.fluidic_safe for r in reports):
            raise LintError(reports)

    def emit_lint(self, report: LintReport) -> None:
        """Surface a lint report's findings as ``lint_finding`` events.

        The one emitter for every lint path: the per-launch kernel gate,
        a ``PipelineApp``'s pre-launch FK4xx/FK5xx guard and its post-run
        sanitizer report (FK591/FK592).  Each distinct finding of WARNING
        severity or above is traced once per runtime — not per launch —
        and bumps ``stats.extra["lint_findings"]``.  Pipeline reports also
        carry each finding's stage and buffer.
        """
        pipeline = report.version == "pipeline"
        for finding in report.worth_reporting(Severity.WARNING):
            key = (report.kernel, report.version, finding.rule_id,
                   finding.arg, finding.stage, finding.buffer)
            if key in self._lint_seen:
                continue
            self._lint_seen.add(key)
            self.stats.extra["lint_findings"] += 1
            where = ({"stage": finding.stage, "buffer": finding.buffer}
                     if pipeline else {})
            self.engine.trace(
                "lint_finding", kernel=report.kernel,
                version=report.version, rule=finding.rule_id,
                severity=finding.severity.value, arg=finding.arg,
                **where, message=finding.message,
            )

    # ------------------------------------------------------------------
    # Cooperative kernel execution (§4.2)
    # ------------------------------------------------------------------
    def enqueue_nd_range_kernel(self, versions: KernelVersions, ndrange: NDRange,
                                args: Mapping[str, Any]) -> KernelRecord:
        self.machine.host_api_call()
        specs = self._as_versions(versions)
        base = specs[0]
        base.bind_check(args)
        self._lint_gate(specs)
        kernel_id = next(self._versions)
        record = KernelRecord(
            kernel_id=kernel_id,
            name=base.name,
            total_groups=ndrange.total_groups,
            start_time=self.now,
        )
        self.engine.trace("kernel_begin", kernel=base.name,
                          kernel_id=kernel_id, groups=ndrange.total_groups)

        arg_fbuffers = self._arg_fbuffers(base, args)
        out_fbuffers = [args[a.name] for a in base.out_args]

        # Versions every worker copy must reach before subkernels may run;
        # the merge-diff additionally needs the shipped copy of every
        # *written* buffer to match the anchor's original copy, hence "all
        # buffers".  Buffers already current everywhere stay out of the
        # map: expect_write() is about to mark the out-buffers dirty and
        # nothing would re-fire their gates.
        workers = self.device_set.workers
        required_cpu_versions = {
            fb: fb.latest for fb in arg_fbuffers
            if any(not fb.current(w.index) for w in workers)
        }

        self._refresh_gpu_inputs(arg_fbuffers)
        for fbuf in out_fbuffers:
            fbuf.expect_write(kernel_id)

        plan = self._prepare_plan(
            kernel_id, specs, ndrange, dict(args), out_fbuffers, record,
            required_cpu_versions,
        )

        # Block (kernel calls are blocking, §7) until the anchor kernel
        # exits.  Scheduler threads are NOT joined: an in-flight subkernel
        # runs to completion in the background and its results are simply
        # discarded — the next kernel's worker-side work queues behind it
        # on the in-order compute queues, exactly as with the paper's
        # pthread scheduler.
        schedulers = [CpuScheduler(self, plan, front=front)
                      for front in workers]
        KernelWatchdog(self, self.gpu_device, plan.gpu_event.done,
                       self.config.watchdog_timeout,
                       label=f"kernel k{kernel_id}")
        self.machine.run_until(plan.gpu_event.done)

        if plan.gpu_event.cancelled:
            # Anchor lost mid-kernel: a surviving worker front completes
            # the whole flattened range and its copy becomes the truth.
            self._handle_front_loss(plan, schedulers, anchor_lost=True)
        else:
            plan.board.finalize()
            gpu_result = plan.gpu_event.result
            record.gpu_groups = gpu_result.executed_groups
            record.gpu_span = (gpu_result.start_time, gpu_result.end_time)

            # The workers "completed the whole NDRange first" only if the
            # final status (data included) made it to the anchor (§4.2) —
            # and the single-copy commit is only sound when one *surviving*
            # front holds the entire range; otherwise the shipped landing
            # data on the (live) anchor is merged instead.
            cpu_complete = plan.board.frontier == 0
            sole = plan.ledger.sole_contributor()
            if (cpu_complete and sole is not None
                    and not self.device_set.fronts[sole].lost):
                self._commit_front_complete(plan, sole)
            else:
                self._merge_and_commit(plan)

            self._handle_front_loss(plan, schedulers, anchor_lost=False)

        record.end_time = self.now
        path = ("failover" if record.failover
                else "cpu-complete" if record.cpu_completed_all
                else "merged" if record.merged else "gpu-only")
        self.stats.extra[f"kernels_{path.replace('-', '_')}"] += 1
        self.engine.trace(
            "kernel_end", kernel=record.name, kernel_id=kernel_id,
            gpu_groups=record.gpu_groups, cpu_groups=record.cpu_groups,
            path=path,
        )
        self.pool.trim()
        self.records.append(record)
        self.stats.kernels_enqueued += 1
        return record

    # ------------------------------------------------------------------
    def _arg_fbuffers(self, spec: KernelSpec, args: Mapping[str, Any]) -> List[FluidiBuffer]:
        fbuffers: List[FluidiBuffer] = []
        for arg_spec in spec.buffer_args:
            value = args[arg_spec.name]
            if not isinstance(value, FluidiBuffer):
                raise TypeError(
                    f"argument {arg_spec.name!r} must be a FluidiCL buffer "
                    f"handle, got {type(value).__name__}"
                )
            if value not in fbuffers:
                fbuffers.append(value)
        return fbuffers

    def _fresh_worker_copy(self, fbuf: FluidiBuffer) -> Optional[int]:
        """Index of a current worker copy to refresh from (CPU path first)."""
        if self._cpu_index != 0 and fbuf.current(self._cpu_index):
            return self._cpu_index
        for front in self.device_set.workers:
            if fbuf.current(front.index):
                return front.index
        return None

    def _refresh_gpu_inputs(self, fbuffers: List[FluidiBuffer]) -> None:
        """Bring stale device copies up to date before launching (cf. §6.2).

        The anchor copy can only be stale when the previous writer
        committed on a worker front, in which case that copy is current
        and quiescent, so snapshotting host-side here is race-free.  The
        *other* worker copies can also be stale with no read-back in
        flight (a front-complete commit marks every other copy DIRTY);
        they are refreshed here too, or their schedulers would wait on a
        version that never arrives.
        """
        if self.gpu_device.health.lost:
            # The writes would be cancelled; marking the anchor copies
            # refreshed anyway would corrupt the version tracking.  The
            # kernel about to launch fails over regardless.
            return
        for fbuf in fbuffers:
            need_anchor = not fbuf.current(0)
            stale_workers = [
                front for front in self.device_set.workers
                if not fbuf.current(front.index)
                and not fbuf.dh_pending_for(front.index) and not front.lost
            ]
            if not need_anchor and not stale_workers:
                continue
            source = self._fresh_worker_copy(fbuf) if need_anchor else 0
            if source is None:
                raise RuntimeError(
                    f"buffer {fbuf.name!r} stale on every device"
                )
            # The previous writer committed on ``source``, but a *stale*
            # subkernel targeting this buffer may still be executing on an
            # in-order compute queue; quiesce before snapshotting host-side.
            self._quiesce_copy(fbuf, source)
            snapshot = fbuf.copies[source].snapshot()
            if need_anchor:
                event = self.app_queue.enqueue_write_buffer(fbuf.copies[0],
                                                            snapshot)
                fbuf.record_host_write(0, event)
                fbuf.mark_refreshed(0, fbuf.latest)
                self.stats.extra["gpu_input_refreshes"] += 1
                self.engine.trace("gpu_input_refresh", buffer=fbuf.name,
                                  version=fbuf.latest, nbytes=fbuf.nbytes)
            for front in stale_workers:
                if front.index == source:
                    continue
                event = front.queue.enqueue_write_buffer(
                    fbuf.copies[front.index], snapshot
                )
                fbuf.record_host_write(front.index, event)
                fbuf.mark_refreshed(front.index, fbuf.latest)
                self.stats.extra["front_input_refreshes"] += 1
                self.engine.trace("front_input_refresh", buffer=fbuf.name,
                                  device=front.device.name,
                                  version=fbuf.latest, nbytes=fbuf.nbytes)

    def _prepare_plan(self, kernel_id, specs, ndrange, args, out_fbuffers,
                      record, required_cpu_versions) -> _KernelPlan:
        base = specs[0]
        workers = self.device_set.workers
        # Helper buffers on the anchor: one landing area per worker front
        # plus an original copy per out/inout buffer (§4.1), served from
        # the pool (§6.1).
        landing: Dict[int, Dict[str, Buffer]] = {w.index: {} for w in workers}
        orig: Dict[str, Buffer] = {}
        alloc_seconds = 0.0
        for fbuf in out_fbuffers:
            for front in workers:
                area, t_a = self.pool.acquire(fbuf.shape, fbuf.dtype, "cpuin")
                landing[front.index][fbuf.name] = area
                alloc_seconds += t_a
            pristine, t_b = self.pool.acquire(fbuf.shape, fbuf.dtype, "orig")
            orig[fbuf.name] = pristine
            alloc_seconds += t_b
        if alloc_seconds:
            self.engine.run(self.now + alloc_seconds)

        for fbuf in out_fbuffers:
            self.app_queue.enqueue_copy_buffer(fbuf.copies[0], orig[fbuf.name])

        board = StatusBoard(self.engine, ndrange.total_groups, kernel_id)
        gpu_variant = gpu_fluidic_variant(
            base,
            abort_in_loops=self.config.abort_in_loops,
            unroll=self.config.loop_unroll,
        )
        profilers = {
            w.index: OnlineKernelProfiler(specs,
                                          enabled=self.config.online_profiling)
            for w in workers
        }
        plan = _KernelPlan(
            kernel_id=kernel_id,
            specs=list(specs),
            ndrange=ndrange,
            args=args,
            out_fbuffers=out_fbuffers,
            board=board,
            gpu_event=None,
            landing=landing,
            orig=orig,
            profilers=profilers,
            record=record,
            ledger=FrontLedger(ndrange.total_groups),
            required_cpu_versions=required_cpu_versions,
        )
        gpu_kernel = Kernel(gpu_variant, plan.front_args(base, 0))
        plan.gpu_event = self.app_queue.enqueue_nd_range_kernel(
            gpu_kernel, ndrange,
            LaunchConfig(status_board=board, kernel_id=kernel_id),
        )
        return plan

    def _handle_front_loss(self, plan: _KernelPlan,
                           schedulers: List[CpuScheduler],
                           anchor_lost: bool) -> None:
        """Unified front-loss handling for both loss directions.

        *Anchor lost*: degrade gracefully — the cooperative design makes
        this cheap, because the worker fronts are already executing the
        same kernel from the top of the range.  A surviving *leader* front
        drains the unclaimed floor plus the redo spans of every other
        front (their results live in copies the leader cannot merge from)
        and then its copy is committed, exactly like the §4.2
        front-complete path minus the result shipping, which the dead
        anchor can no longer receive.

        *Worker lost* (anchor survived): the kernel was already committed
        by the caller; each newly lost front is reported as one failover,
        once per loss rather than per kernel.
        """
        record = plan.record
        if anchor_lost:
            health = self.gpu_device.health
            # Elect the leader among surviving fronts, preferring ones
            # whose required input versions already reached their copy —
            # with the anchor dead, a stale front can never catch up (the
            # missing data rode the anchor's read-back) — and, among
            # those, the front holding the most claimed groups: its copy
            # needs the fewest redo spans re-executed.
            alive = [s for s in schedulers if not s.front.lost]
            ready = [s for s in alive if all(
                fbuf.version_of(s.front.index) >= required
                for fbuf, required in plan.required_cpu_versions.items()
            )]
            leader = max(
                ready or alive,
                key=lambda s: plan.ledger.groups_for(s.front.index),
                default=None,
            )
            if leader is None and schedulers:
                # Nothing survives, but a scheduler still reports the loss
                # uniformly below.
                leader = schedulers[0]
            if leader is None:
                plan.board.finalize()
                raise DeviceLostError(
                    f"kernel {record.name!r} (k{plan.kernel_id}) "
                    f"unrecoverable: anchor {self.gpu_device.name!r} lost "
                    f"({health.lost_reason}) and no worker front exists"
                )
            self.stats.extra["failovers"] += 1
            self.engine.trace(
                "failover", kernel_id=plan.kernel_id,
                lost=self.gpu_device.name,
                survivor=leader.front.name,
                reason=health.lost_reason,
                frontier=leader.frontier,
            )
            # Every other front's claims become the leader's redo spans;
            # stop shipping results/status to the dead device, and freeze
            # the board so the record reflects the pre-loss state.
            plan.ledger.enter_failover(leader.front.index)
            plan.board.finalize()
            # The leader's process may have already run dry (other fronts
            # claimed everything); re-arm it so the redo spans are drained.
            leader.rearm_for_failover()
            for scheduler in schedulers:
                self.machine.run_until(scheduler.process)
            if leader.data_lost or not leader.completed_all:
                raise DeviceLostError(
                    f"kernel {record.name!r} (k{plan.kernel_id}) "
                    f"unrecoverable: anchor {self.gpu_device.name!r} lost "
                    f"({health.lost_reason}) and front "
                    f"{leader.front.name!r} could not complete the range "
                    f"(frontier={leader.frontier}, "
                    f"data_lost={leader.data_lost})"
                )
            for fbuf in plan.out_fbuffers:
                fbuf.commit_front(leader.front.index, plan.kernel_id)
            record.failover = True
            record.cpu_completed_all = True
            record.cpu_groups = plan.ndrange.total_groups
            record.gpu_groups = 0
            self.engine.trace("commit", kernel_id=plan.kernel_id,
                              path="failover",
                              buffers=[f.name for f in plan.out_fbuffers])
            # The hd queue drains instantly (every pending send cancels),
            # after which nothing references the helper buffers; the usual
            # release callback cannot be used because callbacks on a lost
            # device are themselves cancelled.
            self.machine.run_until(self.hd_queue.finish_event())
            for area in plan.landing.values():
                for buffer in area.values():
                    self.pool.release(buffer)
            for buffer in plan.orig.values():
                self.pool.release(buffer)
            return

        # The mirror image: a worker front died, the surviving fronts
        # carried the kernel.
        for front in self.device_set.workers:
            if front.lost and front.index not in self._front_loss_traced:
                self._front_loss_traced.add(front.index)
                self.stats.extra["failovers"] += 1
                self.engine.trace(
                    "failover", kernel_id=plan.kernel_id,
                    lost=front.device.name,
                    survivor=self.gpu_device.name,
                    reason=front.device.health.lost_reason,
                )

    def _commit_front_complete(self, plan: _KernelPlan, front_index: int) -> None:
        """§4.2: one front finished the whole NDRange; anchor results are
        ignored and that front's copy becomes the committed truth."""
        record = plan.record
        record.cpu_completed_all = True
        record.cpu_groups = plan.ndrange.total_groups
        for fbuf in plan.out_fbuffers:
            fbuf.commit_front(front_index, plan.kernel_id)
        self.engine.trace("commit", kernel_id=plan.kernel_id,
                          path="cpu-complete",
                          buffers=[f.name for f in plan.out_fbuffers])
        self._release_helpers_after_hd_drain(plan)

    def _merge_and_commit(self, plan: _KernelPlan) -> None:
        """Normal path: diff+merge on the anchor, then background read-back.

        With several contributing fronts the merges run pairwise in
        ascending front order on the in-order ``app_queue`` — each landing
        buffer differs from the pristine original only in that front's
        disjoint windows, so the pairwise order is commutative and the
        result is the union of all contributed ranges.
        """
        record = plan.record
        record.cpu_groups = plan.board.cpu_completed_groups

        if plan.board.cpu_completed_groups > 0:
            contributors = plan.ledger.credited_contributors(
                plan.board.frontier
            )
            for front_index in contributors:
                for fbuf in plan.out_fbuffers:
                    self._enqueue_merge(plan, fbuf, front_index)
                    self.engine.trace(
                        "merge_enqueued", kernel_id=plan.kernel_id,
                        buffer=fbuf.name,
                        cpu_groups=plan.board.cpu_completed_groups,
                        device=self.device_set.fronts[front_index].name,
                    )
            record.merged = True
            self.stats.extra["merges"] += (
                len(plan.out_fbuffers) * len(contributors)
            )

        # Read-back staging copies so the next kernel can overwrite the live
        # buffers while results stream to the host (§5.5).
        readback: Dict[str, Buffer] = {}
        alloc_seconds = 0.0
        for fbuf in plan.out_fbuffers:
            staging, t_alloc = self.pool.acquire(fbuf.shape, fbuf.dtype, "readback")
            readback[fbuf.name] = staging
            alloc_seconds += t_alloc
        if alloc_seconds:
            self.engine.run(self.now + alloc_seconds)
        for fbuf in plan.out_fbuffers:
            self.app_queue.enqueue_copy_buffer(fbuf.copies[0], readback[fbuf.name])

        # The blocking kernel call returns once the merged result exists.
        # The commit marker is also tracked in ``_pending_commits`` so that
        # ``finish``/``drain`` account for merge work on ``app_queue`` even
        # if a future path stops blocking here.
        commit_done = self.app_queue.finish_event()
        self._pending_commits.append(commit_done)
        self.machine.run_until(commit_done)
        for fbuf in plan.out_fbuffers:
            fbuf.commit_front(0, plan.kernel_id)
            for front in self.device_set.workers:
                fbuf.set_dh_pending(front.index, True)
        self.engine.trace("commit", kernel_id=plan.kernel_id,
                          path="merged" if record.merged else "gpu-only",
                          buffers=[f.name for f in plan.out_fbuffers])

        self._spawn_dh_thread(plan, readback)
        self._release_helpers_after_hd_drain(plan)

    def _enqueue_merge(self, plan: _KernelPlan, fbuf: FluidiBuffer,
                       front_index: int) -> None:
        count = int(np.prod(fbuf.shape, dtype=np.int64))
        merged_bytes: List[int] = []
        merge_spec = build_merge_kernel(fbuf.nbytes, fbuf.dtype.itemsize,
                                        on_diff=merged_bytes.append)
        merge_kernel = Kernel(
            plain_variant(merge_spec),
            {
                "cpu_buf": plan.landing[front_index][fbuf.name],
                "orig": plan.orig[fbuf.name],
                "gpu_buf": fbuf.copies[0],
                "number_elems": count,
            },
        )
        merge_event = self.app_queue.enqueue_nd_range_kernel(
            merge_kernel, merge_ndrange(count)
        )
        # Host reads of the anchor copy (on ``dh_queue``) must quiesce
        # behind this in-flight merge write.
        fbuf.record_kernel_write(0, merge_event)

        def report(_done, kernel_id=plan.kernel_id, fbuf=fbuf):
            self.engine.trace(
                "merge_done", kernel_id=kernel_id, buffer=fbuf.name,
                nbytes_merged=sum(merged_bytes), nbytes_buffer=fbuf.nbytes,
                cancelled=merge_event.cancelled,
            )

        merge_event.done.add_callback(report)

    def _spawn_dh_thread(self, plan: _KernelPlan, readback: Dict[str, Buffer]) -> None:
        """Device-to-host thread (§5.6), one per kernel, runs in background."""
        process = self.engine.process(
            self._dh_thread(plan, readback), name=f"fluidicl-dh-k{plan.kernel_id}"
        )
        self._dh_processes.append(process)

    def _dh_thread(self, plan: _KernelPlan, readback: Dict[str, Buffer]):
        yield self.engine.timeout(self.machine.host.thread_spawn_overhead)
        kernel_id = plan.kernel_id
        self.engine.trace("dh_readback_begin", kernel=plan.record.name,
                          kernel_id=kernel_id,
                          buffers=len(plan.out_fbuffers))
        delivered = 0
        workers = self.device_set.workers
        for fbuf in plan.out_fbuffers:
            staging_buffer = readback[fbuf.name]
            host_staging = np.empty(fbuf.shape, dtype=fbuf.dtype)
            read_event = self.dh_queue.enqueue_read_buffer(
                staging_buffer, host_staging
            )
            yield read_event.done
            if read_event.cancelled:
                # Anchor died before the staging copy came down; the host
                # array holds no data.  Abandon the delivery (and wake any
                # §5.3 waiter so it can re-evaluate instead of hanging).
                self._abandon_dh_delivery(kernel_id, fbuf)
            elif fbuf.latest == kernel_id:
                delivered_all = True
                for front in workers:
                    index = front.index
                    write_event = front.queue.enqueue_write_buffer(
                        fbuf.copies[index], host_staging
                    )
                    fbuf.record_host_write(index, write_event)
                    yield write_event.done
                    if write_event.cancelled:
                        # This front died before the refresh landed; its
                        # copy still holds its old (DIRTY) state.
                        self._abandon_dh_delivery(kernel_id, fbuf, index)
                        delivered_all = False
                    elif fbuf.latest == kernel_id:
                        fbuf.mark_refreshed(index, kernel_id)
                    else:
                        # The buffer was rewritten meanwhile; the remaining
                        # deliveries would be just as stale (§5.3).
                        self._discard_stale_dh(kernel_id, fbuf)
                        delivered_all = False
                        break
                if delivered_all and fbuf.latest == kernel_id:
                    delivered += 1
            else:
                # The buffer was rewritten meanwhile; discard (§5.3).
                self._discard_stale_dh(kernel_id, fbuf)
            self.pool.release(staging_buffer)
        self.engine.trace("dh_readback_end", kernel=plan.record.name,
                          kernel_id=kernel_id, delivered=delivered)

    def _discard_stale_dh(self, kernel_id: int, fbuf: FluidiBuffer) -> None:
        self.stats.extra["stale_dh_discards"] += 1
        self.engine.trace("stale_dh_discard", kernel_id=kernel_id,
                          buffer=fbuf.name, superseded_by=fbuf.latest)

    def _abandon_dh_delivery(self, kernel_id: int, fbuf: FluidiBuffer,
                             index: Optional[int] = None) -> None:
        """A device died under this buffer's read-back; it will not arrive."""
        if index is None:
            indices = [front.index for front in self.device_set.workers]
        else:
            indices = [index]
        for i in indices:
            fbuf.set_dh_pending(i, False)
            # Wake §5.3 waiters; they see the pending flag cleared with the
            # version unchanged and react (failover data-loss detection).
            fbuf.gates[i].fire(fbuf.version_of(i))

    def _release_helpers_after_hd_drain(self, plan: _KernelPlan) -> None:
        """Return landing/orig buffers to the pool once in-flight worker
        sends (whose results are now moot) have drained out of the ``hd``
        queue."""
        helpers = [
            buffer for area in plan.landing.values()
            for buffer in area.values()
        ] + list(plan.orig.values())
        if not helpers:
            return

        def release(_queue):
            for buffer in helpers:
                self.pool.release(buffer)

        self.hd_queue.enqueue_callback(release, label=f"release k{plan.kernel_id}")
