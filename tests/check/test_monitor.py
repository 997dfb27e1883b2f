"""Unit tests for the coherence monitor's invariant catalog.

Each test feeds a synthetic event stream through a real
:class:`~repro.obs.recorder.EventRecorder` (so the category → kind mapping
and the listener hook are exercised too) and asserts which invariant, if
any, trips.
"""

import pytest

from repro.check import CoherenceMonitor, InvariantViolationError
from repro.obs.recorder import EventRecorder


def make_monitor():
    recorder = EventRecorder()
    monitor = CoherenceMonitor().attach(recorder)
    return recorder, monitor


def feed(recorder, category, ts=0.0, **attrs):
    recorder.record(ts, category, attrs)


def feed_clean_kernel(recorder, kernel_id=1, groups=10, path="merged",
                      buffers=("y",)):
    """A well-formed cooperative kernel: two CPU windows, merge, commit."""
    feed(recorder, "kernel_begin", kernel_id=kernel_id, kernel="k",
         groups=groups)
    feed(recorder, "subkernel_launch", kernel_id=kernel_id,
         fid_start=groups - 2, fid_end=groups)
    feed(recorder, "status_delivery", kernel_id=kernel_id,
         frontier=groups - 2, accepted=True)
    feed(recorder, "subkernel_launch", kernel_id=kernel_id,
         fid_start=groups - 4, fid_end=groups - 2)
    feed(recorder, "status_delivery", kernel_id=kernel_id,
         frontier=groups - 4, accepted=True)
    for name in buffers:
        feed(recorder, "merge_enqueued", kernel_id=kernel_id, buffer=name,
             cpu_groups=4)
        feed(recorder, "merge_done", kernel_id=kernel_id, buffer=name,
             nbytes_merged=16, nbytes_buffer=64, cancelled=False)
    feed(recorder, "commit", kernel_id=kernel_id, path=path,
         buffers=list(buffers))
    feed(recorder, "kernel_end", kernel_id=kernel_id, path=path,
         gpu_groups=groups - 4, cpu_groups=4)


class TestCleanStreams:
    def test_cooperative_kernel_passes(self):
        recorder, monitor = make_monitor()
        feed_clean_kernel(recorder)
        monitor.final_check()
        assert monitor.ok, monitor.report()
        assert monitor.checks > 10

    def test_multi_kernel_chain_passes(self):
        recorder, monitor = make_monitor()
        for kid in (1, 2, 3):
            feed_clean_kernel(recorder, kernel_id=kid)
        monitor.final_check()
        assert monitor.ok, monitor.report()

    def test_report_mentions_check_count(self):
        recorder, monitor = make_monitor()
        feed_clean_kernel(recorder)
        assert "OK" in monitor.report()

    def test_detach_stops_observation(self):
        recorder, monitor = make_monitor()
        monitor.detach(recorder)
        feed(recorder, "subkernel_launch", kernel_id=99, fid_start=0,
             fid_end=1)
        assert monitor.ok


def first_invariant(monitor):
    assert not monitor.ok, "expected a violation"
    return monitor.violations[0].invariant


class TestPartitionInvariant:
    def test_overlapping_window_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=8, fid_end=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=7, fid_end=9)
        assert first_invariant(monitor) == "cpu-front-partition"

    def test_gap_in_front_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=8, fid_end=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=4, fid_end=6)
        assert first_invariant(monitor) == "cpu-front-partition"

    def test_window_outside_ndrange_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=8, fid_end=12)
        assert first_invariant(monitor) == "cpu-front-partition"


class TestFrontierInvariant:
    def test_non_decreasing_frontier_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=6, fid_end=10)
        feed(recorder, "status_delivery", kernel_id=1, frontier=8, accepted=True)
        feed(recorder, "status_delivery", kernel_id=1, frontier=8, accepted=True)
        assert first_invariant(monitor) == "frontier-monotonicity"

    def test_rejected_status_is_ignored(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=6, fid_end=10)
        feed(recorder, "status_delivery", kernel_id=1, frontier=8, accepted=True)
        feed(recorder, "status_delivery", kernel_id=1, frontier=8, accepted=False)
        assert monitor.ok

    def test_status_ahead_of_execution_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=8, fid_end=10)
        # claims groups [2, 10) done, but only [8, 10) was ever launched
        feed(recorder, "status_delivery", kernel_id=1, frontier=2, accepted=True)
        assert first_invariant(monitor) == "frontier-monotonicity"


class TestCoverageAndMerge:
    def test_lost_groups_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "commit", kernel_id=1, path="gpu-only", buffers=["y"])
        feed(recorder, "kernel_end", kernel_id=1, path="gpu-only",
             gpu_groups=8, cpu_groups=0)
        assert first_invariant(monitor) == "coverage"

    def test_failover_must_complete_everything(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "commit", kernel_id=1, path="failover", buffers=["y"])
        feed(recorder, "kernel_end", kernel_id=1, path="failover",
             gpu_groups=0, cpu_groups=7)
        assert first_invariant(monitor) == "coverage"

    def test_dropped_cpu_work_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=8, fid_end=10)
        feed(recorder, "status_delivery", kernel_id=1, frontier=8, accepted=True)
        feed(recorder, "commit", kernel_id=1, path="gpu-only", buffers=["y"])
        feed(recorder, "kernel_end", kernel_id=1, path="gpu-only",
             gpu_groups=10, cpu_groups=2)
        assert first_invariant(monitor) == "overlap-merge"

    def test_merged_path_without_merge_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=8, fid_end=10)
        feed(recorder, "status_delivery", kernel_id=1, frontier=8, accepted=True)
        feed(recorder, "commit", kernel_id=1, path="merged", buffers=["y"])
        feed(recorder, "kernel_end", kernel_id=1, path="merged",
             gpu_groups=10, cpu_groups=2)
        assert first_invariant(monitor) == "overlap-merge"

    def test_merge_bytes_exceeding_buffer_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "merge_enqueued", kernel_id=1, buffer="y", cpu_groups=2)
        feed(recorder, "merge_done", kernel_id=1, buffer="y",
             nbytes_merged=128, nbytes_buffer=64, cancelled=False)
        assert first_invariant(monitor) == "merge-accounting"

    def test_cancelled_merge_accounting_is_void(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=10)
        feed(recorder, "merge_enqueued", kernel_id=1, buffer="y", cpu_groups=2)
        feed(recorder, "merge_done", kernel_id=1, buffer="y",
             nbytes_merged=0, nbytes_buffer=64, cancelled=True)
        assert monitor.ok


class TestVersionInvariants:
    def test_non_monotonic_commit_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "buffer_write", buffer="y", version=5)
        feed(recorder, "kernel_begin", kernel_id=3, kernel="k", groups=4)
        feed(recorder, "commit", kernel_id=3, path="gpu-only", buffers=["y"])
        assert first_invariant(monitor) == "version-monotonicity"

    def test_stale_host_read_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "buffer_write", buffer="y", version=2)
        feed(recorder, "buffer_read", buffer="y", version=1)
        assert first_invariant(monitor) == "stale-read"

    def test_current_read_passes(self):
        recorder, monitor = make_monitor()
        feed(recorder, "buffer_write", buffer="y", version=2)
        feed(recorder, "buffer_read", buffer="y", version=2)
        assert monitor.ok

    def test_discard_of_current_version_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=2, kernel="k", groups=4)
        feed(recorder, "stale_dh_discard", kernel_id=2, buffer="y",
             superseded_by=2)
        assert first_invariant(monitor) == "stale-discard"

    def test_discard_for_newer_version_passes(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=2, kernel="k", groups=4)
        feed(recorder, "stale_dh_discard", kernel_id=2, buffer="y",
             superseded_by=5)
        assert monitor.ok


class TestCommitConsistency:
    def test_double_commit_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=4)
        feed(recorder, "commit", kernel_id=1, path="gpu-only", buffers=["y"])
        feed(recorder, "commit", kernel_id=1, path="merged", buffers=[])
        assert first_invariant(monitor) == "commit-consistency"

    def test_end_path_must_match_commit_path(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=4)
        feed(recorder, "commit", kernel_id=1, path="gpu-only", buffers=["y"])
        feed(recorder, "kernel_end", kernel_id=1, path="merged",
             gpu_groups=4, cpu_groups=2)
        assert first_invariant(monitor) == "commit-consistency"

    def test_event_for_unknown_kernel_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "subkernel_launch", kernel_id=7, fid_start=0, fid_end=1)
        assert first_invariant(monitor) == "commit-consistency"

    def test_unfinished_kernel_flagged_by_final_check(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=4)
        monitor.final_check()
        assert first_invariant(monitor) == "commit-consistency"

    def test_unfinished_kernel_tolerated_after_abort(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=4)
        monitor.final_check(aborted=True)
        assert monitor.ok


class TestStrictMode:
    def test_strict_raises_at_violation_instant(self):
        recorder = EventRecorder()
        monitor = CoherenceMonitor(strict=True).attach(recorder)
        feed(recorder, "buffer_write", buffer="y", version=2)
        with pytest.raises(InvariantViolationError) as exc:
            feed(recorder, "buffer_read", buffer="y", version=1)
        assert exc.value.violation.invariant == "stale-read"


class TestFrontPartitionInvariant:
    """Invariant #10: N-device sets — worker-front windows partition the
    claimed range, and redo windows only re-cover foreign claims."""

    def feed_two_worker_kernel(self, recorder, total=12):
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=total)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=10,
             fid_end=12, device="gpu-b")
        feed(recorder, "status_delivery", kernel_id=1, frontier=10,
             accepted=True)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=8,
             fid_end=10, device="cpu")
        feed(recorder, "status_delivery", kernel_id=1, frontier=8,
             accepted=True)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=6,
             fid_end=8, device="gpu-b")
        feed(recorder, "status_delivery", kernel_id=1, frontier=6,
             accepted=True)

    def test_interleaved_worker_fronts_pass(self):
        recorder, monitor = make_monitor()
        self.feed_two_worker_kernel(recorder)
        feed(recorder, "merge_enqueued", kernel_id=1, buffer="y",
             cpu_groups=6, device="gpu-b")
        feed(recorder, "merge_done", kernel_id=1, buffer="y",
             nbytes_merged=16, nbytes_buffer=64, cancelled=False)
        feed(recorder, "merge_enqueued", kernel_id=1, buffer="y",
             cpu_groups=6, device="cpu")
        feed(recorder, "merge_done", kernel_id=1, buffer="y",
             nbytes_merged=16, nbytes_buffer=64, cancelled=False)
        feed(recorder, "commit", kernel_id=1, path="merged", buffers=["y"])
        feed(recorder, "kernel_end", kernel_id=1, path="merged",
             gpu_groups=6, cpu_groups=6)
        monitor.final_check()
        assert monitor.ok, monitor.report()

    def test_redo_over_foreign_claim_passes(self):
        recorder, monitor = make_monitor()
        self.feed_two_worker_kernel(recorder)
        # anchor lost: 'cpu' leads, drains the floor, then re-executes the
        # other front's [6, 8) and [10, 12) windows as redo spans
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=0,
             fid_end=6, device="cpu")
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=10,
             fid_end=12, device="cpu", redo=True)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=6,
             fid_end=8, device="cpu", redo=True)
        feed(recorder, "commit", kernel_id=1, path="failover", buffers=["y"])
        feed(recorder, "kernel_end", kernel_id=1, path="failover",
             gpu_groups=0, cpu_groups=12)
        monitor.final_check()
        assert monitor.ok, monitor.report()

    def test_redo_over_unclaimed_range_flagged(self):
        recorder, monitor = make_monitor()
        self.feed_two_worker_kernel(recorder)
        # [2, 5) was never claimed by any front: nothing to re-execute
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=2,
             fid_end=5, device="cpu", redo=True)
        assert first_invariant(monitor) == "front-partition"

    def test_redo_over_own_claim_flagged(self):
        recorder, monitor = make_monitor()
        self.feed_two_worker_kernel(recorder)
        # [8, 10) belongs to 'cpu' itself — redoing it is double execution,
        # not failover recovery of a foreign span
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=8,
             fid_end=10, device="cpu", redo=True)
        assert first_invariant(monitor) == "front-partition"

    def test_redo_does_not_advance_the_claim_front(self):
        recorder, monitor = make_monitor()
        self.feed_two_worker_kernel(recorder)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=10,
             fid_end=12, device="cpu", redo=True)
        # the descending claim front still stands at 6: the next regular
        # window must continue there, and does
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=4,
             fid_end=6, device="cpu")
        assert monitor.ok, monitor.report()

    def test_cross_front_gap_flagged_at_kernel_end(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", kernel_id=1, kernel="k", groups=12)
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=10,
             fid_end=12, device="gpu-b")
        feed(recorder, "subkernel_launch", kernel_id=1, fid_start=6,
             fid_end=8, device="cpu")
        feed(recorder, "commit", kernel_id=1, path="merged", buffers=["y"])
        feed(recorder, "merge_enqueued", kernel_id=1, buffer="y",
             cpu_groups=4)
        feed(recorder, "merge_done", kernel_id=1, buffer="y",
             nbytes_merged=8, nbytes_buffer=64, cancelled=False)
        feed(recorder, "kernel_end", kernel_id=1, path="merged",
             gpu_groups=8, cpu_groups=4)
        assert not monitor.ok
        tripped = {v.invariant for v in monitor.violations}
        assert "front-partition" in tripped


class TestClockMonotonicityInvariant:
    """Invariant #11: observed timestamps never decrease."""

    def test_monotone_stream_passes(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", ts=0.0, kernel_id=1, kernel="k",
             groups=4)
        feed(recorder, "subkernel_launch", ts=1e-6, kernel_id=1,
             fid_start=0, fid_end=4)
        feed(recorder, "status_delivery", ts=1e-6, kernel_id=1,
             frontier=0, accepted=True)  # same-instant ties are fine
        assert monitor.ok, monitor.report()

    def test_backwards_timestamp_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "kernel_begin", ts=2e-6, kernel_id=1, kernel="k",
             groups=4)
        feed(recorder, "pool_hit", ts=1e-6)
        assert first_invariant(monitor) == "clock-monotonicity"

    def test_unhandled_categories_are_checked_too(self):
        recorder, monitor = make_monitor()
        feed(recorder, "cmd_start", ts=5e-6)
        feed(recorder, "cmd_end", ts=4e-6)
        assert first_invariant(monitor) == "clock-monotonicity"

    def test_strict_mode_raises_at_the_instant(self):
        recorder = EventRecorder()
        monitor = CoherenceMonitor(strict=True).attach(recorder)
        feed(recorder, "cmd_start", ts=5e-6)
        with pytest.raises(InvariantViolationError):
            feed(recorder, "cmd_start", ts=3e-6)


def feed_clean_job(recorder, job_id=0, tenant="acme", ts=0.0):
    """A well-formed serving-layer job lifecycle."""
    feed(recorder, "job_submitted", ts=ts, job_id=job_id, tenant=tenant)
    feed(recorder, "job_admitted", ts=ts, job_id=job_id, tenant=tenant)
    feed(recorder, "job_started", ts=ts + 1e-6, job_id=job_id, tenant=tenant)
    feed(recorder, "job_done", ts=ts + 2e-6, job_id=job_id, tenant=tenant,
         outcome="done")


class TestServeAccountingInvariant:
    """Invariant #12: admission conservation and per-tenant FIFO order."""

    def test_clean_lifecycles_pass(self):
        recorder, monitor = make_monitor()
        for job_id in range(3):
            feed_clean_job(recorder, job_id=job_id, ts=job_id * 1e-5)
        feed(recorder, "job_submitted", ts=1e-3, job_id=9, tenant="acme")
        feed(recorder, "job_shed", ts=1e-3, job_id=9, tenant="acme")
        monitor.final_check()
        assert monitor.ok, monitor.report()

    def test_duplicate_submission_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "job_submitted", job_id=1, tenant="acme")
        feed(recorder, "job_submitted", job_id=1, tenant="acme")
        assert first_invariant(monitor) == "serve-accounting"

    def test_fifo_inversion_flagged(self):
        recorder, monitor = make_monitor()
        for job_id in (1, 2):
            feed(recorder, "job_submitted", job_id=job_id, tenant="acme")
            feed(recorder, "job_admitted", job_id=job_id, tenant="acme")
        # job 2 jumps the queue ahead of job 1
        feed(recorder, "job_started", job_id=2, tenant="acme")
        assert first_invariant(monitor) == "serve-accounting"
        assert "FIFO" in str(monitor.violations[0])

    def test_cross_tenant_order_is_free(self):
        recorder, monitor = make_monitor()
        for job_id, tenant in ((1, "a"), (2, "b")):
            feed(recorder, "job_submitted", job_id=job_id, tenant=tenant)
            feed(recorder, "job_admitted", job_id=job_id, tenant=tenant)
        feed(recorder, "job_started", job_id=2, tenant="b")
        feed(recorder, "job_started", job_id=1, tenant="a")
        assert monitor.ok, monitor.report()

    def test_start_of_shed_job_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "job_submitted", job_id=1, tenant="acme")
        feed(recorder, "job_shed", job_id=1, tenant="acme")
        feed(recorder, "job_started", job_id=1, tenant="acme")
        assert first_invariant(monitor) == "serve-accounting"

    def test_done_without_start_flagged(self):
        recorder, monitor = make_monitor()
        feed(recorder, "job_submitted", job_id=1, tenant="acme")
        feed(recorder, "job_admitted", job_id=1, tenant="acme")
        feed(recorder, "job_done", job_id=1, tenant="acme", outcome="done")
        assert first_invariant(monitor) == "serve-accounting"

    def test_unresolved_submission_flagged_at_final_check(self):
        recorder, monitor = make_monitor()
        feed(recorder, "job_submitted", job_id=1, tenant="acme")
        assert monitor.ok  # online it's fine: admission may be in flight
        monitor.final_check()
        assert first_invariant(monitor) == "serve-accounting"

    def test_unfinished_admitted_job_flagged_unless_aborted(self):
        recorder, monitor = make_monitor()
        feed(recorder, "job_submitted", job_id=1, tenant="acme")
        feed(recorder, "job_admitted", job_id=1, tenant="acme")
        monitor.final_check(aborted=True)
        assert monitor.ok, monitor.report()
        recorder2, monitor2 = make_monitor()
        feed(recorder2, "job_submitted", job_id=1, tenant="acme")
        feed(recorder2, "job_admitted", job_id=1, tenant="acme")
        monitor2.final_check()
        assert first_invariant(monitor2) == "serve-accounting"
