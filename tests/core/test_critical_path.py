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

from repro.core.runtime import FluidiCLRuntime
from repro.faults import FaultKind, FaultSchedule, install_faults
from repro.harness.runner import measure_app
from repro.hw.machine import build_machine
from repro.obs import EventKind
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


class TestLandingAreas:
    def test_no_landing_area_when_no_worker_ships(self):
        """scan's kernels credit the CPU nothing, so it never ships and
        no landing area is allocated."""
        run = measure_app(make_app("scan", "small", seed=1), trace=True)
        labels = {e["label"] for e in run.machine.tracer.by_kind(EventKind.POOL)}
        assert "cpuin" not in labels

    def test_first_shipment_allocates_on_the_scheduler_thread(self):
        run = measure_app(make_app("gemm", "small", seed=1), trace=True)
        spans = run.machine.tracer.event_spans(EventKind.POOL)
        landing = [s for s in spans if s.attrs["label"] == "cpuin"]
        assert landing
        assert {s.track for s in landing} == {"fluidicl-w1-sched"}
        assert {s.track for s in spans if s.attrs["label"] != "cpuin"} == {
            "runtime"}


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
        from it."""
        run = measure_app(make_app("scan", "small", seed=1), trace=True)
        allocs = run.machine.tracer.event_spans(EventKind.POOL)
        assert [(s.attrs["label"], s.track) for s in allocs] == [
            ("orig", "runtime")]

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
