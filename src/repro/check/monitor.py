"""Online invariant checking over the FluidiCL event stream.

:class:`CoherenceMonitor` subscribes to an
:class:`~repro.obs.recorder.EventRecorder` (the monitor hook API) and
re-derives, event by event, the cross-device bookkeeping the runtime is
supposed to maintain — then flags any divergence as a
:class:`Violation`.  The invariant catalog mirrors the paper's
correctness argument (see DESIGN.md, "Schedule-space fuzzing"):

``cpu-front-partition``
    CPU subkernel windows walk the flattened NDRange down from the top in
    contiguous, non-overlapping steps: the first window ends at
    ``total_groups`` and each next window ends exactly where the previous
    one started (§5.1/§5.2, Fig. 10).
``frontier-monotonicity``
    Accepted CPU-completion status messages carry strictly decreasing
    frontiers, never claim groups outside the range, and never get ahead
    of what the CPU has actually executed (§4.2: status strictly follows
    data).
``coverage``
    At kernel end, GPU-executed plus CPU-completed groups cover the whole
    NDRange — cooperative execution (or failover, §4.2) never drops a
    work-group.
``overlap-merge``
    A work-group executed by both devices is only ever resolved through a
    merge (normal path, §4.3) or a wholesale discard of one device's
    results (CPU-complete / failover paths); CPU work is never silently
    dropped.
``version-monotonicity``
    Committed buffer versions (host writes and kernel commits) are
    strictly increasing per buffer (§5.3).
``stale-read``
    A host read never observes a version older than the buffer's last
    commit (§5.5/§6.2 location tracking).
``merge-accounting``
    Per-buffer merge byte counts never exceed the buffer, and every
    enqueued merge reports its accounting before the kernel ends (§4.3).
``stale-discard``
    Late device-to-host data is only discarded in favour of a *newer*
    committed version (§5.3).
``commit-consistency``
    Every kernel commits exactly once, on the same path it reports at
    kernel end; every kernel that begins also ends (unless the run was
    aborted by an unrecoverable device loss).
``front-partition``
    Device-set partitioning: the worker fronts' claimed windows are
    pairwise disjoint across fronts, cover the flattened range exactly
    once down to the lowest claimed start, and *redo* windows only
    re-cover ranges some other front had already claimed (§4, Fig. 7
    generalized to N devices).  A redo window is any re-run of another
    front's window: a failover leader's redo span, or a late window that
    an idle front re-runs because its claimant has not landed it.
``clock-monotonicity``
    Observed event timestamps never decrease: the engine's integer-tick
    clock only moves forward, so the recorder stream is monotone in
    simulated time (checked for *every* event, not just the handled
    categories).
``serve-accounting``
    Serving-layer (:mod:`repro.serve`) admission conservation and
    per-tenant FIFO order: every submitted job resolves to exactly one of
    *admitted* or *shed* at the submission instant (so ``admitted + shed
    == submitted`` holds at all times); only admitted jobs start and only
    started jobs finish (completions are a subset of admissions); and
    within one tenant, jobs start in admission order.  A drained,
    non-aborted run finishes every admitted job.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.offsets import coalesce_windows
from repro.obs.events import TraceEvent
from repro.obs.recorder import EventRecorder

__all__ = ["Violation", "InvariantViolationError", "CoherenceMonitor"]


@dataclass(frozen=True)
class Violation:
    """One observed breach of a runtime invariant."""

    invariant: str
    message: str
    ts: float
    kernel_id: Optional[int] = None
    buffer: Optional[str] = None

    def __str__(self) -> str:
        where = []
        if self.kernel_id is not None:
            where.append(f"k{self.kernel_id}")
        if self.buffer is not None:
            where.append(f"buffer {self.buffer!r}")
        location = f" [{', '.join(where)}]" if where else ""
        return f"{self.invariant}{location} @ {self.ts:.6f}s: {self.message}"


class InvariantViolationError(AssertionError):
    """Raised by a strict monitor at the instant an invariant breaks."""

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class _KernelState:
    """Per-kernel bookkeeping re-derived from the event stream."""

    kernel_id: int
    name: str
    total_groups: int
    #: where the next subkernel window must end (walks down from the top)
    next_window_end: int = 0
    #: non-redo windows per worker front (device name), for the N-device
    #: partition invariant
    front_windows: Dict[str, List[tuple]] = field(default_factory=dict)
    #: last accepted status frontier
    frontier: int = 0
    merges_enqueued: int = 0
    merges_reported: int = 0
    commit_path: Optional[str] = None
    ended: bool = False

    def __post_init__(self):
        self.next_window_end = self.total_groups
        self.frontier = self.total_groups


class CoherenceMonitor:
    """Asserts FluidiCL's cross-device invariants online.

    Attach to a traced machine *before* the run::

        machine = build_machine(trace=True)
        monitor = CoherenceMonitor().attach(machine.tracer)
        ...  # run the workload
        monitor.final_check()
        assert monitor.ok, monitor.report()

    With ``strict=True`` the first violation raises
    :class:`InvariantViolationError` at the simulated instant it occurs,
    which puts the failing event at the top of the traceback.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: List[Violation] = []
        #: number of individual invariant checks evaluated
        self.checks = 0
        self._kernels: Dict[int, _KernelState] = {}
        #: last committed version per buffer name
        self._latest: Dict[str, int] = {}
        #: timestamp of the last observed event (clock-monotonicity)
        self._last_ts = float("-inf")
        #: serving-layer lifecycle per job id:
        #: "submitted" -> "admitted"/"shed" -> "started" -> "done"
        self._job_state: Dict[int, str] = {}
        #: per-tenant admitted-but-not-started job ids, in admission order
        self._job_pending: Dict[str, Deque[int]] = {}

    # -- wiring ------------------------------------------------------------
    def attach(self, recorder: EventRecorder) -> "CoherenceMonitor":
        recorder.add_listener(self.observe)
        return self

    def detach(self, recorder: EventRecorder) -> None:
        recorder.remove_listener(self.observe)

    # -- results -----------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.ok:
            return f"coherence: OK ({self.checks} checks)"
        lines = [f"coherence: {len(self.violations)} violation(s) "
                 f"({self.checks} checks):"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)

    def _flag(self, invariant: str, message: str, ts: float,
              kernel_id: Optional[int] = None,
              buffer: Optional[str] = None) -> None:
        violation = Violation(invariant, message, ts, kernel_id, buffer)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolationError(violation)

    def _check(self, condition: bool, invariant: str, message: str,
               ts: float, kernel_id: Optional[int] = None,
               buffer: Optional[str] = None) -> bool:
        self.checks += 1
        if not condition:
            self._flag(invariant, message, ts, kernel_id, buffer)
        return condition

    # -- ingestion ---------------------------------------------------------
    def observe(self, event: TraceEvent) -> None:
        # Invariant #11: the stream is monotone in simulated time.
        ts = event.ts
        self._check(
            ts >= self._last_ts, "clock-monotonicity",
            f"{event.category} at {ts!r}s observed after an event at "
            f"{self._last_ts!r}s (simulated clock ran backwards)",
            ts,
        )
        if ts > self._last_ts:
            self._last_ts = ts
        handler = self._HANDLERS.get(event.category)
        if handler is not None:
            handler(self, event)

    def final_check(self, aborted: bool = False) -> None:
        """Post-run checks; ``aborted=True`` when the run ended in a
        (legitimate) unrecoverable device loss, which may leave the last
        kernel unfinished."""
        for state in self._kernels.values():
            if not state.ended:
                self._check(
                    aborted, "commit-consistency",
                    f"kernel {state.name!r} began but never ended",
                    ts=0.0, kernel_id=state.kernel_id,
                )
        # Invariant #12: after a drained run, every job has resolved —
        # admission happened at submission, and every admitted job ran to
        # job_done (admitted + shed == submitted, completed == admitted).
        for job_id, phase in self._job_state.items():
            if phase == "submitted":
                self._check(
                    False, "serve-accounting",
                    f"job {job_id} was submitted but neither admitted nor "
                    f"shed (admission conservation broken)",
                    ts=0.0,
                )
            elif phase in ("admitted", "started"):
                self._check(
                    aborted, "serve-accounting",
                    f"job {job_id} ended the run in state {phase!r} "
                    f"(admitted but never finished)",
                    ts=0.0,
                )

    # -- handlers ----------------------------------------------------------
    def _on_kernel_begin(self, event: TraceEvent) -> None:
        kernel_id = event["kernel_id"]
        self._check(
            kernel_id not in self._kernels, "commit-consistency",
            f"kernel id {kernel_id} launched twice", event.ts, kernel_id,
        )
        self._kernels[kernel_id] = _KernelState(
            kernel_id=kernel_id,
            name=str(event.get("kernel", "")),
            total_groups=int(event["groups"]),
        )

    def _state(self, event: TraceEvent) -> Optional[_KernelState]:
        state = self._kernels.get(event.get("kernel_id"))
        if state is None:
            self._flag(
                "commit-consistency",
                f"{event.category} for unknown kernel id "
                f"{event.get('kernel_id')!r}",
                event.ts, event.get("kernel_id"),
            )
        return state

    def _on_subkernel(self, event: TraceEvent) -> None:
        state = self._state(event)
        if state is None:
            return
        lo, hi = int(event["fid_start"]), int(event["fid_end"])
        redo = bool(event.get("redo", False))
        device = str(event.get("device", "cpu"))
        ok = self._check(
            0 <= lo < hi <= state.total_groups, "cpu-front-partition",
            f"window [{lo}, {hi}) outside NDRange with "
            f"{state.total_groups} groups",
            event.ts, state.kernel_id,
        )
        if redo:
            # A re-run of another front's window (failover redo span or
            # late window): it does not continue the descending claim
            # front, but it must re-cover only ranges some *other* front
            # had already claimed.
            if ok:
                foreign = coalesce_windows(
                    w for d, ws in state.front_windows.items()
                    if d != device for w in ws
                )
                self._check(
                    any(s <= lo and hi <= e for s, e in foreign),
                    "front-partition",
                    f"redo window [{lo}, {hi}) on {device!r} re-covers a "
                    f"range no other front had claimed",
                    event.ts, state.kernel_id,
                )
            return
        if ok:
            self._check(
                hi == state.next_window_end, "cpu-front-partition",
                f"window [{lo}, {hi}) does not continue the worker front at "
                f"{state.next_window_end} (gap or overlap in the flattened "
                f"range)",
                event.ts, state.kernel_id,
            )
        state.front_windows.setdefault(device, []).append((lo, hi))
        state.next_window_end = min(lo, state.next_window_end)

    def _on_status(self, event: TraceEvent) -> None:
        state = self._state(event)
        if state is None or not event.get("accepted", False):
            return
        frontier = int(event["frontier"])
        self._check(
            0 <= frontier <= state.total_groups, "frontier-monotonicity",
            f"frontier {frontier} outside [0, {state.total_groups}]",
            event.ts, state.kernel_id,
        )
        self._check(
            frontier < state.frontier, "frontier-monotonicity",
            f"accepted frontier {frontier} does not decrease "
            f"(previous {state.frontier})",
            event.ts, state.kernel_id,
        )
        self._check(
            frontier >= state.next_window_end, "frontier-monotonicity",
            f"frontier {frontier} claims completion below the lowest "
            f"launched window start {state.next_window_end} "
            f"(status ahead of execution)",
            event.ts, state.kernel_id,
        )
        state.frontier = min(frontier, state.frontier)

    def _on_merge_enqueued(self, event: TraceEvent) -> None:
        state = self._state(event)
        if state is None:
            return
        state.merges_enqueued += 1
        self._check(
            int(event.get("cpu_groups", 0)) > 0, "overlap-merge",
            "merge enqueued although the CPU completed no groups",
            event.ts, state.kernel_id, event.get("buffer"),
        )

    def _on_merge_done(self, event: TraceEvent) -> None:
        state = self._state(event)
        if state is None:
            return
        state.merges_reported += 1
        if event.get("cancelled", False):
            return  # device died under the merge; accounting is void
        merged = int(event["nbytes_merged"])
        total = int(event["nbytes_buffer"])
        self._check(
            0 <= merged <= total, "merge-accounting",
            f"merged {merged} bytes of a {total}-byte buffer",
            event.ts, state.kernel_id, event.get("buffer"),
        )

    def _on_commit(self, event: TraceEvent) -> None:
        state = self._state(event)
        if state is None:
            return
        path = str(event.get("path", ""))
        self._check(
            state.commit_path is None, "commit-consistency",
            f"kernel committed twice ({state.commit_path!r} then {path!r})",
            event.ts, state.kernel_id,
        )
        state.commit_path = path
        for name in event.get("buffers", ()):
            self._bump_version(name, state.kernel_id, event.ts)

    def _bump_version(self, buffer: str, version: int, ts: float) -> None:
        previous = self._latest.get(buffer)
        self._check(
            previous is None or version > previous, "version-monotonicity",
            f"committed version {version} not newer than {previous}",
            ts, buffer=buffer,
        )
        self._latest[buffer] = max(version, self._latest.get(buffer, version))

    def _on_buffer_write(self, event: TraceEvent) -> None:
        self._bump_version(str(event["buffer"]), int(event["version"]),
                           event.ts)

    def _on_buffer_read(self, event: TraceEvent) -> None:
        buffer = str(event["buffer"])
        version = event.get("version")
        if version is None:
            return  # producer predates version stamping
        latest = self._latest.get(buffer, int(version))
        self._check(
            int(version) >= latest, "stale-read",
            f"read served version {version}, but version {latest} was "
            f"already committed",
            event.ts, buffer=buffer,
        )

    def _on_stale_discard(self, event: TraceEvent) -> None:
        kernel_id = event.get("kernel_id")
        superseded_by = event.get("superseded_by")
        if superseded_by is None or kernel_id is None:
            return
        self._check(
            int(superseded_by) > int(kernel_id), "stale-discard",
            f"data of kernel {kernel_id} discarded in favour of "
            f"non-newer version {superseded_by}",
            event.ts, kernel_id, event.get("buffer"),
        )

    def _on_kernel_end(self, event: TraceEvent) -> None:
        state = self._state(event)
        if state is None:
            return
        state.ended = True
        path = str(event.get("path", ""))
        gpu_groups = int(event.get("gpu_groups", 0))
        cpu_groups = int(event.get("cpu_groups", 0))
        total = state.total_groups
        self._check(
            state.commit_path == path, "commit-consistency",
            f"kernel ended on path {path!r} but committed on "
            f"{state.commit_path!r}",
            event.ts, state.kernel_id,
        )
        if path in ("cpu-complete", "failover"):
            self._check(
                cpu_groups == total, "coverage",
                f"{path} path completed only {cpu_groups} of {total} groups",
                event.ts, state.kernel_id,
            )
        else:
            self._check(
                gpu_groups + cpu_groups >= total, "coverage",
                f"gpu={gpu_groups} + cpu={cpu_groups} groups do not cover "
                f"the {total}-group NDRange (work lost)",
                event.ts, state.kernel_id,
            )
        if path == "merged":
            self._check(
                state.merges_enqueued >= 1, "overlap-merge",
                "merged path ended without any merge enqueued",
                event.ts, state.kernel_id,
            )
            self._check(
                state.merges_reported == state.merges_enqueued,
                "merge-accounting",
                f"{state.merges_enqueued} merges enqueued but only "
                f"{state.merges_reported} reported byte accounting",
                event.ts, state.kernel_id,
            )
        elif path == "gpu-only":
            self._check(
                cpu_groups == 0, "overlap-merge",
                f"gpu-only path dropped {cpu_groups} CPU-completed groups "
                f"without a merge",
                event.ts, state.kernel_id,
            )
        # Invariant #10: the fronts partition the claimed range exactly.
        claimed = sorted(
            w for ws in state.front_windows.values() for w in ws
        )
        self._check(
            all(claimed[i][1] <= claimed[i + 1][0]
                for i in range(len(claimed) - 1)),
            "front-partition",
            "worker-front windows overlap across fronts",
            event.ts, state.kernel_id,
        )
        covered = sum(hi - lo for lo, hi in claimed)
        self._check(
            covered == total - state.next_window_end, "front-partition",
            f"fronts claimed {covered} groups but descended to "
            f"{state.next_window_end} of {total} (every flattened ID must "
            f"be claimed exactly once)",
            event.ts, state.kernel_id,
        )

    # -- invariant #12: serving-layer accounting ---------------------------
    def _on_job_submitted(self, event: TraceEvent) -> None:
        job_id = int(event["job_id"])
        self._check(
            job_id not in self._job_state, "serve-accounting",
            f"job id {job_id} submitted twice", event.ts,
        )
        self._job_state[job_id] = "submitted"

    def _job_transition(self, event: TraceEvent, expected: str,
                        new_state: str) -> bool:
        job_id = int(event["job_id"])
        current = self._job_state.get(job_id)
        ok = self._check(
            current == expected, "serve-accounting",
            f"{event.category} for job {job_id} in state {current!r} "
            f"(expected {expected!r})",
            event.ts,
        )
        self._job_state[job_id] = new_state
        return ok

    def _on_job_admitted(self, event: TraceEvent) -> None:
        if self._job_transition(event, "submitted", "admitted"):
            tenant = str(event.get("tenant", ""))
            self._job_pending.setdefault(tenant, deque()).append(
                int(event["job_id"]))

    def _on_job_shed(self, event: TraceEvent) -> None:
        self._job_transition(event, "submitted", "shed")

    def _on_job_started(self, event: TraceEvent) -> None:
        if not self._job_transition(event, "admitted", "started"):
            return
        tenant = str(event.get("tenant", ""))
        pending = self._job_pending.get(tenant)
        job_id = int(event["job_id"])
        expected = pending.popleft() if pending else None
        self._check(
            expected == job_id, "serve-accounting",
            f"tenant {tenant!r} started job {job_id} ahead of its earlier "
            f"admitted job {expected} (per-tenant FIFO order broken)",
            event.ts,
        )

    def _on_job_done(self, event: TraceEvent) -> None:
        self._job_transition(event, "started", "done")

    _HANDLERS = {
        "kernel_begin": _on_kernel_begin,
        "kernel_end": _on_kernel_end,
        "subkernel_launch": _on_subkernel,
        "status_delivery": _on_status,
        "merge_enqueued": _on_merge_enqueued,
        "merge_done": _on_merge_done,
        "commit": _on_commit,
        "buffer_write": _on_buffer_write,
        "buffer_read": _on_buffer_read,
        "stale_dh_discard": _on_stale_discard,
        "job_submitted": _on_job_submitted,
        "job_admitted": _on_job_admitted,
        "job_shed": _on_job_shed,
        "job_started": _on_job_started,
        "job_done": _on_job_done,
    }
