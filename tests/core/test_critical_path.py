"""Fixed per-kernel costs off the anchor's critical path.

Helper allocation (§6.1) and the §5.6 read-back used to add to every
cooperative kernel: the host allocated every helper before it launched
the anchor kernel and again after it ended, a per-kernel pool trim made
bfs allocate the same helpers at every level, ``finish()`` waited for
a second device-to-host copy of data the host had already read, and
every read-back first copied its buffer into a staging helper.  These
tests pin each mechanism that took those costs away.
"""

import numpy as np
import pytest

from repro.core import runtime as runtime_module
from repro.core.merge import merge_seconds
from repro.core.pool import BufferPool
from repro.core.runtime import FluidiCLRuntime
from repro.faults import FaultKind, FaultSchedule, install_faults
from repro.harness.runner import measure_app
from repro.hw.machine import build_machine
from repro.obs import EventKind
from repro.ocl.executor import StatusBoard
from repro.ocl.health import DeviceLostError
from repro.ocl.ndrange import NDRange
from repro.polybench import make_app

from tests.conftest import make_accumulate_kernel, make_scale_kernel


def _gemm(faults=None):
    """gemm at small scale on a traced ``default`` node, not yet run."""
    app = make_app("gemm", "small", seed=1)
    machine = build_machine(trace=True)
    runtime = FluidiCLRuntime(machine)
    if faults is not None:
        install_faults(runtime.platform, faults)
    return app, runtime, machine


def _buffer(runtime, name):
    (fbuf,) = [b for b in runtime.buffers if b.name == name]
    return fbuf


def _read_backs_done(runtime):
    """No buffer's read-back holds data or waits for a copy."""
    return all(fbuf.readback is None
               or (fbuf.readback.data is None and not fbuf.readback.waiting)
               for fbuf in runtime.buffers)


class TestPoolKeepsHelpers:
    def test_bfs_reuses_its_helpers_across_levels(self):
        """Without a per-kernel trim, bfs allocates each helper shape
        once instead of at every level (29 misses with the trim)."""
        run = measure_app(make_app("bfs", "small", seed=1))
        assert run.runtime.pool.misses <= 9
        assert run.runtime.pool.hits > 3 * run.runtime.pool.misses

    @pytest.mark.parametrize("preset", ["default", "cpu+2gpu", "big.little"])
    def test_every_helper_returns_after_drain(self, preset):
        for name in ("bfs", "gemm", "scan"):
            run = measure_app(make_app(name, "test", seed=1), machine=preset)
            assert run.runtime.pool.in_use_count == 0, name


def _first_subkernels(run):
    """Each worker's first ``subkernel_launch`` event and first subkernel
    command span, keyed by its queue name."""
    tracer = run.machine.tracer
    launches, spans = {}, {}
    for event in tracer.by_kind(EventKind.SUBKERNEL):
        front = run.runtime.device_set.front_by_name(event["device"])
        launches.setdefault(front.queue.name, event)
    for span in sorted(tracer.command_spans(), key=lambda s: s.start):
        if (span.track in launches
                and span.attrs["type"] == "ndrange_kernel"):
            spans.setdefault(span.track, span)
    return launches, spans


class TestLandingAreas:
    def test_landing_area_never_blocks_the_host(self):
        """Every worker allocates its landing areas on its scheduler's
        thread, in the instant it enqueues its first subkernel, so the
        allocation runs while that subkernel is queued or running.  scan
        credits its workers nothing and still allocates them: off every
        critical path, the host blocks only on pristine copies."""
        for name in ("gemm", "scan", "histogram"):
            for preset in ("default", "cpu+2gpu"):
                run = measure_app(make_app(name, "small", seed=1),
                                  machine=preset, trace=True)
                launches, _spans = _first_subkernels(run)
                spans = run.machine.tracer.event_spans(EventKind.POOL)
                assert {s.attrs["label"] for s in spans
                        if s.track == "runtime"} == {"orig"}
                firsts = {}
                for span in spans:
                    if span.attrs["label"] == "cpuin":
                        firsts.setdefault(span.track, span)
                assert set(firsts) == {f"{q}-sched" for q in launches}
                for queue, event in launches.items():
                    assert firsts[f"{queue}-sched"].start == event.ts

    def test_landing_area_is_allocated_under_the_first_subkernel(self):
        """scan's Xeon allocates its landing areas while its first
        subkernel runs, not after it."""
        run = measure_app(make_app("scan", "small", seed=1), trace=True)
        _launches, spans = _first_subkernels(run)
        first = spans["fluidicl-w1"]
        (landing,) = [s for s in run.machine.tracer.event_spans(EventKind.POOL)
                      if s.attrs["label"] == "cpuin"]
        assert first.start <= landing.start
        assert landing.end <= first.end

    def test_first_shipment_allocates_on_the_scheduler_thread(self):
        run = measure_app(make_app("gemm", "small", seed=1), trace=True)
        spans = run.machine.tracer.event_spans(EventKind.POOL)
        landing = [s for s in spans if s.attrs["label"] == "cpuin"]
        assert landing
        assert {s.track for s in landing} == {"fluidicl-w1-sched"}
        assert {s.track for s in spans if s.attrs["label"] != "cpuin"} == {
            "runtime"}


class TestPristineCopiesReturnAtCommit:
    def test_pristine_copies_return_before_the_landing_areas(
            self, monkeypatch):
        """No transfer or merge touches a pristine copy once its kernel
        has committed, so it returns to the pool at the commit.  The
        landing areas wait for the worker shipments still in flight on
        ``hd``: on ``cpu+2gpu``, 3mm's kernel 1 commits while one is."""
        released = []
        release = BufferPool.release

        def spy(pool, buffer):
            released.append((buffer.name, pool.device.engine.now))
            return release(pool, buffer)

        monkeypatch.setattr(BufferPool, "release", spy)
        run = measure_app(make_app("3mm", "small", seed=1),
                          machine="cpu+2gpu", trace=True)
        commits = [e.ts for e in run.machine.tracer.events
                   if e.category == "commit"]
        pristine = [t for name, t in released if name.startswith("orig")]
        landing = [t for name, t in released if name.startswith("cpuin")]
        assert pristine == commits
        assert landing[0] > commits[0]


class TestMergeOnlyWhatPays:
    def test_3mm_commits_without_a_merge(self):
        """The Xeon's statuses cover only the top of the Tesla's running
        waves, which run whole: the anchor computes every group of all
        three kernels, so no landing area is merged."""
        run = measure_app(make_app("3mm", "small", seed=1))
        extra = run.runtime.stats.extra
        assert [r.path for r in run.runtime.records] == ["gpu-only"] * 3
        assert extra["merges"] == 0
        assert extra["merges_skipped"] > 0
        assert all(r.gpu_groups == r.total_groups and r.cpu_groups == 0
                   for r in run.runtime.records)

    def test_gemm_declines_its_last_wave_abort(self):
        """The Xeon's window lands during the Tesla's last wave.  Its
        abort would save 30 us and add a 71 us merge of C, so the wave
        runs to its end and the kernel commits with no merge."""
        run = measure_app(make_app("gemm", "small", seed=1), trace=True)
        (record,) = run.runtime.records
        assert record.path == "gpu-only"
        extra = run.runtime.stats.extra
        assert extra["aborts_declined"] == 1
        assert extra["merges"] == 0
        (declined,) = [e for e in run.machine.tracer.events
                       if e.category == "abort_declined"]
        assert declined["saved"] == pytest.approx(30.3e-6, abs=0.1e-6)
        assert declined["price"] == pytest.approx(71.1e-6, abs=0.1e-6)
        fbuf = _buffer(run.runtime, "C")
        assert declined["price"] == pytest.approx(merge_seconds(
            run.runtime.gpu_device.spec, fbuf.nbytes, fbuf.dtype.itemsize))

    def test_cpu_complete_status_always_aborts(self, monkeypatch):
        """gesummv's Xeon lands all 8 groups during the Tesla's only
        wave.  A cpu-complete commit merges nothing, so the abort is free
        whatever the out-buffer's merge would cost, and the anchor stops
        at its next check."""
        boards = []

        class Board(StatusBoard):
            """Records every price the anchor asks for."""

            def __init__(self, *args, **kwargs):
                self._price = None
                self.prices = []
                super().__init__(*args, **kwargs)
                boards.append(self)

            @property
            def abort_price(self):
                if self._price is None:
                    return None

                def recorded(lo, hi):
                    self.prices.append((lo, hi, self._price(lo, hi)))
                    return self.prices[-1][2]

                return recorded

            @abort_price.setter
            def abort_price(self, price):
                self._price = price

        monkeypatch.setattr(runtime_module, "StatusBoard", Board)
        run = measure_app(make_app("gesummv", "test", seed=1))
        (record,) = run.runtime.records
        (board,) = boards
        assert record.path == "cpu-complete"
        assert board.frontier == 0
        assert board.prices == [(0, 8, 0.0)]
        assert run.runtime.stats.extra["aborts_declined"] == 0
        assert record.gpu_groups == 0
        # the Tesla's wave would run 4 ms; it stops at the check after
        # the status (0.367 ms)
        assert record.gpu_span[1] < 0.5e-3


class TestReadBackReadsTheLiveCopy:
    @pytest.mark.parametrize("name", ["gemm", "bfs"])
    def test_no_read_back_helper(self, name):
        run = measure_app(make_app(name, "small", seed=1), trace=True)
        labels = {e["label"] for e in run.machine.tracer.by_kind(EventKind.POOL)}
        assert labels and "readback" not in labels

    def test_scan_blocks_only_on_pristine_copies(self):
        """scan's host took 5 misses with a staging helper per read-back,
        and 2 with a pool keyed by shape; the upsweep's two pristine
        copies now share one allocation, and the downsweep's is carved
        from it.  The Xeon's landing allocation runs on its own
        scheduler's track."""
        run = measure_app(make_app("scan", "small", seed=1), trace=True)
        allocs = run.machine.tracer.event_spans(EventKind.POOL)
        assert [(s.attrs["label"], s.track) for s in allocs
                if s.track == "runtime"] == [("orig", "runtime")]

    def test_a_later_writer_waits_for_the_read_back(self):
        """Two back-to-back kernels accumulate into ``y``.  The second
        overwrites the anchor copy that the first one's read-back reads,
        so its pristine copy, the first command it enqueues, starts only
        once that D2H has ended."""
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine)
        n = 4096
        spec = make_accumulate_kernel(n)
        x = runtime.create_buffer("x", (n,), np.float32)
        y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        runtime.enqueue_write_buffer(y, np.zeros(n, dtype=np.float32))
        args = {"x": x, "y": y}
        first = runtime.enqueue_nd_range_kernel(spec, NDRange(n, 16), args)
        runtime.enqueue_nd_range_kernel(spec, NDRange(n, 16), args)
        runtime.drain()
        spans = machine.tracer.command_spans()
        readback = min(
            (s for s in spans if s.track == "fluidicl-dh"
             and s.attrs["type"] == "read_buffer"),
            key=lambda s: s.start)
        pristine = sorted(
            (s for s in spans if s.track == "fluidicl-app"
             and s.attrs["type"] == "copy_buffer"),
            key=lambda s: s.start)
        assert len(pristine) == 2
        assert first.end_time <= readback.start
        assert readback.end <= pristine[1].start
        out = np.empty(n, dtype=np.float32)
        runtime.enqueue_read_buffer(y, out)
        assert np.array_equal(out, np.full(n, 2.0, np.float32))


class TestHostReadCoversTheReadBack:
    def test_gemm_reads_c_down_once(self):
        app, runtime, machine = _gemm()
        outputs = app.host_program(runtime, app.fresh_inputs())
        fbuf = _buffer(runtime, "C")
        read_done = machine.now
        runtime.finish()
        # finish() waits for no second copy of C: only its own API call.
        assert machine.now - read_done == pytest.approx(
            machine.host.api_call_overhead)
        runtime.drain()
        assert runtime.gpu_device.stats["bytes_d2h"] == fbuf.nbytes
        assert runtime.stats.extra["readbacks_covered"] == 1
        # The worker copy still receives the result, bit for bit.
        assert fbuf.current(1)
        assert np.array_equal(fbuf.copies[1].view, outputs["C"])
        assert _read_backs_done(runtime)

    def test_without_a_host_read_the_read_back_copies_down(self):
        runtime = FluidiCLRuntime(build_machine())
        n = 4096
        x = runtime.create_buffer("x", (n,), np.float32)
        y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        record = runtime.enqueue_nd_range_kernel(
            make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.05, work_scale=32.0),
            NDRange(n, 16), {"x": x, "y": y, "alpha": 2.0})
        assert record.path in ("gpu-only", "merged")
        runtime.drain()
        assert runtime.stats.extra["readbacks_covered"] == 0
        assert runtime.gpu_device.stats["bytes_d2h"] == y.nbytes
        assert y.current(1)
        assert np.array_equal(y.copies[1].view, np.full(n, 2.0, np.float32))
        assert _read_backs_done(runtime)

    def test_cancelled_host_read_falls_back_to_a_read_of_the_anchor(self):
        """The anchor dies between the kernel's commit and the covering
        host read: the read is cancelled, the dh thread falls back to its
        own (equally doomed) D2H, and the §5.3 waiters learn that the data
        will not arrive."""
        app, runtime, machine = _gemm()
        app.host_program(runtime, app.fresh_inputs())
        (read,) = [s for s in machine.tracer.command_spans()
                   if s.track == "fluidicl-dh"
                   and s.attrs["buffer"].startswith("C@")]
        faults = FaultSchedule.single(
            FaultKind.DEVICE_LOSS,
            at=read.start - 0.5 * machine.host.api_call_overhead,
            device=runtime.gpu_device.name)
        app, runtime, machine = _gemm(faults)
        with pytest.raises(DeviceLostError):
            app.host_program(runtime, app.fresh_inputs())
        runtime.drain()
        fbuf = _buffer(runtime, "C")
        assert runtime.stats.extra["readbacks_covered"] == 0
        assert not fbuf.dh_pending_for(1)
        assert not fbuf.current(1)
        assert _read_backs_done(runtime)


class TestSupersededReadBack:
    """Kernel A commits ``y`` on the anchor of ``cpu+2gpu``, the host
    overwrites ``y`` before A's read-back reaches the worker copies, and
    kernel B commits ``y`` on the Xeon alone.  A's read-back is moot from
    the overwrite on, so kernel C, which reads ``y``, must refresh both
    stale copies: a copy left waiting for it never gets ``y``."""

    N = 4096

    def _run(self, loss_after=None):
        n = self.N
        machine = build_machine(preset="cpu+2gpu", trace=True)
        runtime = FluidiCLRuntime(machine)
        x = runtime.create_buffer("x", (n,), np.float32)
        y = runtime.create_buffer("y", (n,), np.float32)
        z = runtime.create_buffer("z", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.arange(n, dtype=np.float32))
        a = runtime.enqueue_nd_range_kernel(
            make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.05, work_scale=32.0),
            NDRange(n, 16), {"x": x, "y": y, "alpha": 2.0})
        runtime.enqueue_write_buffer(y, np.ones(n, dtype=np.float32))
        b = runtime.enqueue_nd_range_kernel(
            make_scale_kernel(n, gpu_eff=0.01, cpu_eff=0.9, work_scale=32.0),
            NDRange(n, 16), {"x": x, "y": y, "alpha": 3.0})
        assert (a.path, b.path) == ("merged", "cpu-complete")
        if loss_after is not None:
            install_faults(runtime.platform, FaultSchedule.single(
                FaultKind.DEVICE_LOSS, at=machine.now + loss_after,
                device=runtime.gpu_device.name))
        refreshes = runtime.stats.extra["input_refreshes"]
        c = runtime.enqueue_nd_range_kernel(
            make_scale_kernel(n, work_scale=32.0),
            NDRange(n, 16), {"x": y, "y": z, "alpha": 0.5})
        refreshes = runtime.stats.extra["input_refreshes"] - refreshes
        runtime.drain()
        out = np.empty(n, dtype=np.float32)
        runtime.enqueue_read_buffer(z, out)
        return runtime, machine, c, refreshes, out

    def test_no_worker_copy_is_stranded(self):
        runtime, machine, c, refreshes, out = self._run()
        assert refreshes == 2
        launched = {e["device"] for e in machine.tracer.events
                    if e.category == "subkernel_launch"
                    and e["kernel_id"] == c.kernel_id}
        assert "Tesla C2070 #2" in launched
        y = _buffer(runtime, "y")
        assert all(y.current(i) for i in range(len(y.copies)))
        assert np.array_equal(out, 1.5 * np.arange(self.N, dtype=np.float32))

    def test_anchor_loss_fails_over(self):
        *_, fault_free = self._run()
        _, _, c, _, out = self._run(loss_after=50e-6)
        assert c.path == "failover"
        assert np.array_equal(out, fault_free)
