"""Worker-front scheduler threads (paper §4.2, §5.1, §5.2, §6.6).

One scheduler process is spawned per worker front per kernel launch.  It
waits until the front's copies of the kernel's buffers are up to date
(buffer version tracking, §5.3), then repeatedly launches *subkernels*
over flattened work-group windows claimed off the shared top frontier of
the kernel's :class:`~repro.core.deviceset.FrontLedger`, feeding results
and status messages to the anchor through the ``hd`` queue, until either
the work runs out or the anchor kernel exits.

With a single worker (the paper's CPU+GPU pair) the ledger hands out
exactly the shrinking top-of-range windows of the paper's CPU scheduler,
and the status values published at delivery time equal the shipped
frontier.

The front's landing areas on the anchor are allocated on this thread
right after it enqueues the kernel's first subkernel, so the allocation
runs while that subkernel does.
"""

from __future__ import annotations

import numpy as np

from repro.core.chunking import AdaptiveChunker
from repro.core.offsets import subkernel_slice
from repro.core.profiling_opt import OnlineKernelProfiler
from repro.kernels.transforms import cpu_subkernel_variant
from repro.ocl.executor import LaunchConfig
from repro.ocl.kernel import Kernel

__all__ = ["CpuScheduler"]

#: size of a worker's execution status message to the anchor, bytes (§5.5)
STATUS_MESSAGE_BYTES = 64


class CpuScheduler:
    """Drives one worker front's cooperative execution for one kernel."""

    def __init__(self, runtime, plan, front):
        self.runtime = runtime
        self.plan = plan
        self.front = front
        #: the front's landing buffers on the anchor, by arg name, acquired
        #: together while the front's first subkernel runs
        self.landing = plan.landing[self.front.index]
        #: trace track of this thread (allocation waits are charged to it)
        self.track = f"{front.queue.name}-sched"
        #: True when this scheduler owns the profiler choice reported for
        #: the kernel (the CPU-path front's scheduler)
        self.primary = self.front is runtime.primary_front
        #: this front's §6.6 version choice for the kernel
        self.profiler = OnlineKernelProfiler(
            plan.specs, enabled=runtime.config.online_profiling)
        #: lowest flattened group ID this front has *executed* down to
        #: (the shared claim floor after this front's latest claim)
        self.frontier = plan.ndrange.total_groups
        #: True when this front's device died mid-subkernel (work is void)
        self.front_lost = False
        #: True when every claimed span landed and none remains claimable
        self.completed_all = False
        #: True when a required input version can never reach this front
        #: (it was riding a device-to-host read-back from a lost anchor)
        self.data_lost = False
        #: per-version bound Kernel, keyed by id(spec).  The variant and the
        #: bound args are pure functions of (plan, spec, front), and the
        #: profiler keeps every spec alive for this scheduler's lifetime, so
        #: each version is transformed and bound once instead of per
        #: subkernel.
        self._kernel_cache = {}
        self.process = runtime.engine.process(
            self._run(), name=f"fluidicl-sched-k{plan.kernel_id}@{front.name}"
        )

    def _gpu_finished(self) -> bool:
        """Anchor kernel ran to completion.  A *cancelled* anchor event
        (device lost) does NOT count: the workers must keep going — they
        are the failover path's surviving devices."""
        event = self.plan.gpu_event
        return event.done.triggered and not event.cancelled

    # ------------------------------------------------------------------
    def _run(self):
        runtime = self.runtime
        plan = self.plan
        engine = runtime.engine
        config = runtime.config
        gpu_done = plan.gpu_event.done
        me = self.front.index
        ledger = plan.ledger
        profiler = self.profiler

        yield engine.timeout(runtime.machine.host.thread_spawn_overhead)

        # -- §5.3: wait until this front's copies reach pre-kernel versions --
        for fbuf, required in plan.required_cpu_versions.items():
            while fbuf.version_of(me) < required:
                if self._gpu_finished():
                    return
                if plan.gpu_event.cancelled and not fbuf.dh_pending_for(me):
                    # The missing version was coming down from the (now
                    # lost) anchor and no read-back remains in flight: the
                    # input data is gone everywhere this front can see.
                    self.data_lost = True
                    return
                waits = [fbuf.gate(me).wait()]
                if not gpu_done.triggered:
                    waits.append(gpu_done)
                yield engine.any_of(waits)

        chunker = AdaptiveChunker(
            plan.ndrange.total_groups,
            self.front.device.spec.compute_units,
            initial_fraction=config.initial_chunk_fraction,
            step_fraction=config.chunk_step_fraction,
        )

        # §6.6: each alternate version is probed with a deliberately small
        # allocation before committing to the fastest one.  Probes round up
        # to a compute-unit multiple like every other allocation, or the
        # partially filled last wave biases the per-group version timings.
        cu = self.front.device.spec.compute_units
        probe_chunk = max(cu, plan.ndrange.total_groups // 100)
        probe_chunk = -(-probe_chunk // cu) * cu
        while not self._gpu_finished():
            remaining = ledger.remaining_for(me)
            spec = profiler.next_version()
            if remaining <= 0:
                # Nothing left to claim: re-run another front's late window.
                window = ledger.claim_late(me)
            elif profiler.probing:
                window = ledger.claim(me, min(probe_chunk, remaining))
            else:
                window = ledger.claim(me, chunker.next_chunk(remaining))
            if window is None:
                break
            start, end = window.start, window.end
            size = end - start

            launch_geometry = subkernel_slice(plan.ndrange, start, end)
            plan.record.surplus_groups += launch_geometry.surplus_groups

            kernel = self._kernel_cache.get(id(spec))
            if kernel is None:
                variant = cpu_subkernel_variant(spec,
                                                wg_split=config.cpu_wg_split)
                kernel = Kernel(variant, plan.front_args(spec, me))
                self._kernel_cache[id(spec)] = kernel
            launch = LaunchConfig(
                fid_start=start,
                fid_end=end,
                kernel_id=plan.kernel_id,
            )
            began = engine.now
            event = self.front.queue.enqueue_nd_range_kernel(
                kernel, plan.ndrange, launch
            )
            # Host reads of this front's copies travel on a separate queue;
            # they must synchronize on this (possibly stale) subkernel's
            # writes.
            for fbuf in plan.out_fbuffers:
                fbuf.record_write(me, event)
            if engine.tracer is not None:
                engine.trace(
                    "subkernel_launch", kernel=spec.name,
                    kernel_id=plan.kernel_id, fid_start=start,
                    fid_end=end, chunk=size,
                    launched_groups=launch_geometry.launched_groups,
                    surplus_groups=launch_geometry.surplus_groups,
                    version=spec.version, probing=profiler.probing,
                    device=self.front.name, redo=window.redo,
                )
            runtime.stats.extra["subkernels_launched"] += 1
            if not self.landing and not plan.board.finalized:
                # The first subkernel runs while this thread allocates the
                # front's landing areas on the anchor, in one pool call.
                # They are registered in the plan before the wait, so the
                # kernel's helper release frees them whatever happens next.
                shipped = list(dict.fromkeys(plan.out_fbuffers))
                areas, ready = runtime.pool.acquire(
                    [(fbuf.shape, fbuf.dtype) for fbuf in shipped], "cpuin",
                    track=self.track)
                self.landing.update(
                    (fbuf.name, area) for fbuf, area in zip(shipped, areas))
                if ready is not None:
                    yield ready
            yield event.done
            if event.cancelled:
                # This front's device died under the subkernel; its partial
                # results are void and the claimed window never lands.  The
                # other fronts carry the kernel from here (the runtime
                # reports the loss once, at kernel end).
                self.front_lost = True
                break
            elapsed = engine.now - began

            # §5.1/§5.2: the covering slice *executed*
            # ``launched_groups = chunk + surplus``, so the observed time
            # must be normalized by what actually ran — feeding only the
            # requested chunk overestimates seconds-per-work-group and
            # stalls the adaptive growth (and the §6.6 version choice) on
            # multi-dimensional ranges.
            executed_groups = launch_geometry.launched_groups
            plan.record.chunks.append(size)
            plan.record.front_groups[self.front.name] = (
                plan.record.front_groups.get(self.front.name, 0) + size
            )
            if profiler.probing:
                profiler.observe(elapsed / executed_groups)
            else:
                chunker.observe(executed_groups, elapsed)
            if profiler.chosen is not None and self.primary:
                plan.record.version_used = profiler.chosen.version

            if not window.redo:
                self.frontier = start
            # A window another front already landed is not shipped again.
            if not plan.board.finalized and not ledger.covered(window):
                yield from self._send_results_and_status(start)

        self.completed_all = (
            not self.front_lost and ledger.remaining_for(me) == 0
        )

    # ------------------------------------------------------------------
    def rearm_for_failover(self) -> None:
        """Restart the claim loop if it already ran dry (anchor loss).

        A scheduler exits once nothing is claimable *for it* — which with
        several workers can mean the other fronts claimed everything.  If
        the anchor then dies and this front is elected failover leader,
        ``enter_failover`` creates redo spans an exited process would
        never see, so the old path committed an incomplete copy.  Spawning
        a fresh run is safe: the §5.3 version wait is already satisfied
        (the loop only exits past it) and claims are re-checked every lap.
        """
        if self.process.is_alive or self.front_lost or self.data_lost:
            return
        if self.plan.ledger.remaining_for(self.front.index) <= 0:
            return
        self.completed_all = False
        self.process = self.runtime.engine.process(
            self._run(), name=f"{self.process.name}-failover"
        )

    # ------------------------------------------------------------------
    def _send_results_and_status(self, frontier: int):
        """Ship computed out-buffers then the status message (§4.2, §5.5).

        Data is snapshotted into intermediate host copies (costing host
        memcpy time on this thread) so subsequent subkernels can keep
        writing the live device copies while the transfer proceeds.  The
        delivered status value is the ledger's *committed frontier* — the
        contiguous landed suffix of the range — which with one worker is
        exactly the shipped frontier (data precedes status on the in-order
        ``hd`` queue), and with several workers never over-reports.
        """
        runtime = self.runtime
        plan = self.plan
        engine = runtime.engine
        host = runtime.machine.host
        index = self.front.index
        ledger = plan.ledger

        board = plan.board
        last_write = None
        for fbuf in plan.out_fbuffers:
            area = self.landing[fbuf.name]
            yield engine.timeout(fbuf.nbytes / host.memcpy_bandwidth)
            snapshot: np.ndarray = fbuf.copies[index].snapshot()
            # The kernel may have been finalized while we copied; its helper
            # buffers are scheduled for release, so stop sending (§5.3).
            if board.finalized:
                return
            last_write = runtime.hd_queue.enqueue_write_buffer(area, snapshot)

        if board.finalized:
            return
        # The shipment lands (and may advance the committed frontier) when
        # its last data write completes on the in-order hd queue.
        mark = ledger.shipment_mark(index)
        if last_write is not None:
            last_write.done.add_callback(
                lambda _e: ledger.mark_landed(index, mark)
            )
        else:
            ledger.mark_landed(index, mark)
        status_seconds = runtime.gpu_device.link.transfer_time(
            STATUS_MESSAGE_BYTES)

        def deliver_status(_queue):
            value = ledger.committed_frontier()
            accepted = board.update(value)
            engine.trace(
                "status_delivery", kernel_id=plan.kernel_id,
                frontier=value, accepted=accepted,
                cpu_completed=board.total_groups - value,
            )
            if accepted:
                runtime.stats.extra["status_messages"] += 1

        runtime.hd_queue.enqueue_callback(
            deliver_status,
            engine="h2d",
            duration=status_seconds,
            label=f"status k{plan.kernel_id} -> {frontier}",
        )
