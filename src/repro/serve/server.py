"""The serving core: queues, admission control, weighted-fair dispatch.

One :class:`Server` runs as sim processes on the machine's existing
engine.  The moving parts mirror a production inference/serving stack,
scaled down to the paper's node:

* **Admission** — :meth:`Server.submit` either enqueues the job on its
  tenant's FIFO queue (``job_admitted``) or sheds it with a typed
  :class:`~repro.serve.job.JobRejected` when the queue is at its bounded
  depth (``job_shed``).  Every submission resolves to exactly one of the
  two at the submission instant, so admission conservation
  (``admitted + shed = submitted``) is checkable per event.
* **Dispatch** — a single dispatcher process drains the per-tenant queues
  in weighted-fair order (virtual-finish-time WFQ; within one tenant the
  order is strictly FIFO).  It wakes through a
  :class:`~repro.sim.resources.Channel` armed with the
  ``Channel.CLOSED`` sentinel, so queue shutdown is unambiguous even
  when ``None``-ish signal payloads are in flight.
* **Execution** — each dispatched job runs a staged pipeline: an
  overlappable host stage, per-device H2D DMA (each device's ``h2d``
  lane serializes its own transfers), the cooperative compute (the job
  acquires every participating device front *in device order* — one
  cooperative run per front at a time, exactly how the real runtime owns
  the devices — while other jobs' host/DMA stages proceed underneath),
  then per-device D2H DMA.  Stage durations come from the job's
  :class:`~repro.serve.profile.AppProfile`; device health is consulted
  live, so losses shrink the surviving work share, stalls park the
  compute stage, link degradation stretches DMA, and a DMA stage prices
  stalls and injected transfer faults through the runtime's own
  :meth:`~repro.ocl.device.Device.transfer`.  The fault injector acts on
  the server's ``platform``, as it does on a runtime's.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Mapping, Optional, Tuple

from repro.hw.machine import Machine
from repro.ocl.health import DeviceLostError
from repro.ocl.platform import Platform
from repro.serve.job import Job, JobRecord, JobRejected
from repro.serve.profile import AppProfile
from repro.sim.core import SimError
from repro.sim.resources import Channel
from repro.sim.sync import Gate
from repro.sim.timebase import from_ticks

__all__ = ["Server", "ServerStats"]


#: the per-tenant job counts a server keeps, in lifecycle order
_COUNTS = ("submitted", "admitted", "shed", "completed", "failed")


class ServerStats:
    """Per-tenant job counts and queue high-water marks of one server.

    Per-job facts (latency, SLO attainment) live on each
    :class:`~repro.serve.job.JobRecord`; these counts are what a bare
    :class:`Server`, which holds no record list, can still answer.
    """

    def __init__(self):
        #: per-tenant counts, keyed by tenant then by a name in ``_COUNTS``
        self.counts: Dict[str, Dict[str, int]] = {}
        #: per-tenant high-water queue depth
        self.peak_depth: Dict[str, int] = {}

    def _count(self, name: str, tenant: str) -> None:
        counts = self.counts.get(tenant)
        if counts is None:
            counts = self.counts[tenant] = dict.fromkeys(_COUNTS, 0)
        counts[name] += 1

    def tenant_counts(self, tenant: str) -> Dict[str, int]:
        counts = self.counts.get(tenant)
        return dict(counts) if counts else dict.fromkeys(_COUNTS, 0)


class Server:
    """Multi-tenant serving of cooperative jobs on one simulated machine."""

    def __init__(self, machine: Machine,
                 profiles: Mapping[Tuple[str, int], AppProfile],
                 max_queue_depth: int = 64,
                 max_inflight: int = 4,
                 weights: Optional[Mapping[str, float]] = None):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.machine = machine
        self.engine = machine.engine
        self.platform = Platform(machine)
        self.profiles = dict(profiles)
        self.max_queue_depth = max_queue_depth
        self.max_inflight = max_inflight
        self.weights = dict(weights or {})
        self.stats = ServerStats()
        self._queues: Dict[str, Deque[JobRecord]] = {}
        self._signal = Channel(self.engine, name="serve:dispatch",
                               close_value=Channel.CLOSED)
        self._slot_free = Gate(self.engine, name="serve:slot")
        self._inflight = 0
        self._intake_closed = False
        #: WFQ bookkeeping: per-tenant virtual finish time + global clock
        self._finish: Dict[str, float] = {}
        self._vclock = 0.0
        self._dispatcher = self.engine.process(
            self._dispatch_loop(), name="serve:dispatcher"
        )

    # -- queue introspection ------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    # -- admission -----------------------------------------------------------
    def submit(self, job: Job) -> JobRecord:
        """Admit or shed ``job``; returns the admitted record or raises
        :class:`JobRejected` (the shed record rides on the exception)."""
        if self._intake_closed:
            raise SimError("submit after the server's intake was closed")
        if (job.app, job.size) not in self.profiles:
            raise KeyError(
                f"no profile for {job.app}@{job.size}; measure it first")
        engine = self.engine
        now = engine.now_ticks
        record = JobRecord(job=job, submitted_ticks=now)
        self.stats._count("submitted", job.tenant)
        engine.trace("job_submitted", job_id=job.job_id, tenant=job.tenant,
                     app=job.app, size=job.size, slo=job.slo)
        queue = self._queues.setdefault(job.tenant, deque())
        if len(queue) >= self.max_queue_depth:
            record.outcome = "shed"
            self.stats._count("shed", job.tenant)
            engine.trace("job_shed", job_id=job.job_id, tenant=job.tenant,
                         reason="queue-full", depth=len(queue))
            raise JobRejected(record, "queue-full")
        record.admitted_ticks = now
        record.done_event = engine.event(f"job-done:{job.job_id}")
        queue.append(record)
        depth = len(queue)
        peak = self.stats.peak_depth
        if depth > peak.get(job.tenant, 0):
            peak[job.tenant] = depth
        self.stats._count("admitted", job.tenant)
        engine.trace("job_admitted", job_id=job.job_id, tenant=job.tenant,
                     depth=depth)
        self._signal.put(job.tenant)
        return record

    def close_intake(self) -> None:
        """No more submissions; the dispatcher drains what is queued and
        then terminates.  Idempotent."""
        if self._intake_closed:
            return
        self._intake_closed = True
        self._signal.close()

    # -- weighted-fair dispatch ----------------------------------------------
    def _backlogged(self) -> bool:
        return any(self._queues.values())

    def _pick_next(self) -> JobRecord:
        """Start-time fair queueing across backlogged tenants.

        Each backlogged tenant's head job carries virtual start tag
        ``max(finish[t], v)`` — own previous finish while backlogged, the
        global virtual clock when returning from idle (no hoarded
        credit).  The minimum start tag is served, ``v`` advances to it,
        and the tenant's finish advances by ``1/weight`` — so under
        backlog, service rates converge to the weights.  Ties break on
        tenant name, keeping same-instant dispatch deterministic.
        """
        best_tenant = None
        best_start = 0.0
        for tenant in sorted(self._queues):
            if not self._queues[tenant]:
                continue
            start = max(self._finish.get(tenant, 0.0), self._vclock)
            if best_tenant is None or start < best_start:
                best_tenant, best_start = tenant, start
        assert best_tenant is not None
        self._vclock = best_start
        self._finish[best_tenant] = (
            best_start + 1.0 / self.weights.get(best_tenant, 1.0))
        return self._queues[best_tenant].popleft()

    def _dispatch_loop(self):
        engine = self.engine
        while True:
            while not self._backlogged():
                if self._intake_closed:
                    return
                message = yield self._signal.get()
                if message is Channel.CLOSED and not self._backlogged():
                    return
            while self._inflight >= self.max_inflight:
                yield self._slot_free.wait()
            record = self._pick_next()
            self._inflight += 1
            job = record.job
            record.started_ticks = engine.now_ticks
            engine.trace("job_started", job_id=job.job_id, tenant=job.tenant,
                         app=job.app, inflight=self._inflight)
            engine.process(self._job_pipeline(record),
                           name=f"serve:job{job.job_id}")

    # -- job execution pipeline ----------------------------------------------
    def _alive_devices(self):
        return [d for d in self.platform.devices if not d.health.lost]

    def _dma(self, device, direction: str, nbytes: int, job_id: int):
        """One DMA stage on ``device``, priced like any runtime transfer;
        a loss drops the device's share of the job instead of failing it."""
        try:
            yield from device.transfer(direction, nbytes, "serve",
                                       {"job_id": job_id})
        except DeviceLostError:
            pass

    def _job_pipeline(self, record: JobRecord):
        engine = self.engine
        job = record.job
        profile = self.profiles[(job.app, job.size)]
        try:
            # Host stage: overlappable preparation (API calls, scheduling).
            if profile.host_seconds > 0.0:
                yield engine.timeout_ticks(
                    engine.delay_ticks(profile.host_seconds))
            # H2D DMA to every live device, concurrently; each device's
            # lane serializes its own transfers across jobs.
            transfers = [
                engine.process(
                    self._dma(d, "h2d", profile.h2d_bytes.get(d.name, 0),
                              job.job_id),
                    name=f"serve:h2d:{job.job_id}")
                for d in self._alive_devices()
                if profile.h2d_bytes.get(d.name, 0) > 0
            ]
            if transfers:
                yield engine.all_of(transfers)
            # Cooperative compute: own every participating front, in fixed
            # device order (deadlock-free), one cooperative run at a time
            # per front.  BackgroundLoad and serve jobs contend on the same
            # per-device compute resources.
            held = []
            try:
                for device in self._alive_devices():
                    request = device.compute.request()
                    yield request
                    held.append((device, request))
                alive = []
                for device, _request in held:
                    lost = yield from device.health.wait_ready()
                    if not lost:
                        alive.append(device)
                scale = profile.compute_scale(
                    tuple(d.name for d in alive))
                if not alive or scale <= 0.0:
                    self._finish_job(record, "failed")
                    return
                duration = profile.compute_seconds / scale
                yield engine.timeout_ticks(engine.delay_ticks(duration))
                for device in alive:
                    device.stats["busy_compute_time"] += duration
                    device.health.beat()
            finally:
                for device, request in held:
                    device.compute.release(request)
            # D2H DMA of the results.
            transfers = [
                engine.process(
                    self._dma(d, "d2h", profile.d2h_bytes.get(d.name, 0),
                              job.job_id),
                    name=f"serve:d2h:{job.job_id}")
                for d in self._alive_devices()
                if profile.d2h_bytes.get(d.name, 0) > 0
            ]
            if transfers:
                yield engine.all_of(transfers)
            self._finish_job(record, "done")
        except Exception:
            self._finish_job(record, "failed")
            raise

    def _finish_job(self, record: JobRecord, outcome: str) -> None:
        engine = self.engine
        job = record.job
        record.done_ticks = engine.now_ticks
        record.outcome = outcome
        self.stats._count("completed" if outcome == "done" else "failed",
                          job.tenant)
        engine.trace("job_done", job_id=job.job_id, tenant=job.tenant,
                     outcome=outcome, latency=from_ticks(record.latency_ticks))
        self._inflight -= 1
        self._slot_free.fire(self._inflight)
        if record.done_event is not None:
            record.done_event.succeed(record)
