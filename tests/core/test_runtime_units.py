"""Focused unit tests for FluidiCL runtime internals and edge cases."""

import numpy as np
import pytest

from repro.core.buffers import DIRTY, FluidiBuffer
from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.kernels.transforms import cpu_subkernel_variant
from repro.obs import EventKind
from repro.ocl.enums import CommandType
from repro.ocl.executor import LaunchConfig
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange

from tests.conftest import make_scale_kernel, run_fluidicl_scale


@pytest.fixture
def runtime():
    return FluidiCLRuntime(build_machine())


def launch(runtime, spec, n, bufs, alpha=2.0):
    runtime.enqueue_nd_range_kernel(
        spec, NDRange(n, 16), {"x": bufs[0], "y": bufs[1], "alpha": alpha}
    )


class TestVersionEdgeCases:
    def test_stale_on_both_devices_is_an_error(self, runtime):
        buf = runtime.create_buffer("b", (64,), np.float32)
        buf.latest = 5
        buf.versions[:] = [DIRTY, DIRTY]
        with pytest.raises(RuntimeError, match="stale on every device"):
            runtime._refresh_gpu_inputs([buf])

    def test_host_write_bumps_version_monotonically(self, runtime):
        buf = runtime.create_buffer("b", (64,), np.float32)
        runtime.enqueue_write_buffer(buf, np.zeros(64, dtype=np.float32))
        first = buf.latest
        runtime.enqueue_write_buffer(buf, np.ones(64, dtype=np.float32))
        assert buf.latest > first

    def test_rewrite_supersedes_kernel_output(self, runtime):
        """Host writes after a kernel: the write's data must win."""
        n = 256
        spec = make_scale_kernel(n, gpu_eff=0.8, cpu_eff=0.2)
        bufs = (
            runtime.create_buffer("x", (n,), np.float32),
            runtime.create_buffer("y", (n,), np.float32),
        )
        runtime.enqueue_write_buffer(bufs[0], np.ones(n, dtype=np.float32))
        launch(runtime, spec, n, bufs)
        fresh = np.full(n, 42.0, dtype=np.float32)
        runtime.enqueue_write_buffer(bufs[1], fresh)
        out = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(bufs[1], out)
        runtime.finish()
        runtime.drain()
        assert np.all(out == 42.0)

    def test_stale_dh_discard_counted_when_rewritten_midflight(self):
        """A host write racing the previous kernel's DH read-back must win,
        and the late DH data must be discarded (§5.3)."""
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        n = 4096
        # GPU-dominant so the kernel commits on the GPU and a DH starts.
        spec = make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.05, work_scale=32.0)
        bufs = (
            runtime.create_buffer("x", (n,), np.float32),
            runtime.create_buffer("y", (n,), np.float32),
        )
        runtime.enqueue_write_buffer(bufs[0], np.ones(n, dtype=np.float32))
        launch(runtime, spec, n, bufs)
        # Immediately overwrite y while its DH transfer is in flight.
        fresh = np.full(n, -1.0, dtype=np.float32)
        runtime.enqueue_write_buffer(bufs[1], fresh)
        out = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(bufs[1], out)
        runtime.finish()
        runtime.drain()
        assert np.all(out == -1.0)
        assert runtime.stats.extra["stale_dh_discards"] >= 1


class TestDeviceNaming:
    """Everything that names a device uses its device name, on the pair as
    on wider sets."""

    @pytest.mark.parametrize("preset", ("default", "cpu+2gpu"))
    def test_copies_gates_and_queues_name_devices(self, preset):
        runtime = FluidiCLRuntime(build_machine(preset=preset))
        buf = runtime.create_buffer("b", (16,), np.float32)
        for front in runtime.device_set.fronts:
            assert buf.copies[front.index].name == f"b@{front.name}"
            assert buf.gates[front.index].name == f"ver{front.index}:b"
        for front in runtime.device_set.workers:
            assert front.queue.name == f"fluidicl-w{front.index}"
            assert front.io_queue.name == f"fluidicl-w{front.index}-io"


class TestMergeDecisions:
    def test_no_merge_when_cpu_contributed_nothing(self, runtime):
        n = 256  # too short for any CPU credit to land
        spec = make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.01)
        bufs = (
            runtime.create_buffer("x", (n,), np.float32),
            runtime.create_buffer("y", (n,), np.float32),
        )
        runtime.enqueue_write_buffer(bufs[0], np.ones(n, dtype=np.float32))
        launch(runtime, spec, n, bufs)
        runtime.finish()
        record = runtime.records[0]
        assert record.path == "gpu-only"
        assert record.cpu_groups == 0

    def test_merge_count_tracks_out_buffers(self):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        n = 16384
        spec = make_scale_kernel(n, gpu_eff=0.4, cpu_eff=0.6, work_scale=32.0)
        bufs = (
            runtime.create_buffer("x", (n,), np.float32),
            runtime.create_buffer("y", (n,), np.float32),
        )
        runtime.enqueue_write_buffer(bufs[0], np.ones(n, dtype=np.float32))
        launch(runtime, spec, n, bufs)
        runtime.finish()
        assert runtime.records[0].path == "merged"
        assert runtime.stats.extra["merges"] == 1


class TestRecords:
    def _cooperative(self):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        n = 16384
        spec = make_scale_kernel(n, gpu_eff=0.4, cpu_eff=0.6, work_scale=32.0)
        bufs = (
            runtime.create_buffer("x", (n,), np.float32),
            runtime.create_buffer("y", (n,), np.float32),
        )
        runtime.enqueue_write_buffer(bufs[0], np.ones(n, dtype=np.float32))
        launch(runtime, spec, n, bufs)
        runtime.finish()
        runtime.drain()
        return runtime.records[0]

    def test_gpu_span_within_record(self):
        record = self._cooperative()
        start, end = record.gpu_span
        assert record.start_time <= start < end

    def test_chunks_sum_to_cpu_executed(self):
        record = self._cooperative()
        assert record.chunks
        assert sum(record.chunks) == sum(record.front_groups.values())
        assert record.subkernels == len(record.chunks)

    def test_wasted_cpu_work_nonnegative(self):
        record = self._cooperative()
        assert record.wasted_cpu_groups >= 0

    def test_1d_range_has_no_surplus(self):
        record = self._cooperative()
        assert record.surplus_groups == 0

    def test_2d_range_reports_surplus(self):
        """2-D covering slices can launch extra, range-checked groups."""
        from repro.polybench import SyrkApp

        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        app = SyrkApp(n=768)
        app.execute(runtime, check=False)
        record = runtime.records[0]
        assert record.surplus_groups >= 0
        assert record.subkernels >= 1


class TestCpuReadSynchronization:
    """Regression tests: host reads of the CPU copy vs in-flight subkernels.

    The read travels on the CPU front's ``io_queue`` (so it does not
    serialize behind stale CPU work), which means it must carry an
    *explicit* dependency on the last CPU subkernel writing the buffer —
    the front's in-order compute ``queue`` alone cannot order the two."""

    def test_read_waits_for_inflight_cpu_subkernel_write(self):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        n = 4096
        spec = make_scale_kernel(n, cpu_eff=0.3, work_scale=32.0)
        x = runtime.create_buffer("x", (n,), np.float32)
        y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        runtime.enqueue_write_buffer(y, np.zeros(n, dtype=np.float32))
        runtime.drain()
        # Launch one CPU subkernel over the whole range exactly the way the
        # scheduler does — registering its completion event on the
        # out-buffer — but do NOT wait for it.  This is the shape of a
        # stale subkernel still executing when the host reads.
        cpu = runtime.primary_front
        ndrange = NDRange(n, 16)
        kernel = Kernel(
            cpu_subkernel_variant(spec, wg_split=False),
            {"x": x.copies[cpu.index], "y": y.copies[cpu.index],
             "alpha": 3.0},
        )
        event = cpu.queue.enqueue_nd_range_kernel(
            kernel, ndrange,
            LaunchConfig(fid_start=0, fid_end=ndrange.total_groups,
                         kernel_id=99),
        )
        y.record_write(cpu.index, event)
        assert not event.is_complete
        out = np.empty(n, dtype=np.float32)
        runtime.enqueue_read_buffer(y, out)
        # The read must have synchronized on the subkernel's write...
        assert event.is_complete
        # ...and therefore observed its output, not the stale zeros.
        assert np.all(out == 3.0)
        runtime.drain()

    def test_scheduler_registers_subkernel_write_events(self, monkeypatch):
        """Cooperative runs record each subkernel as its copy's writer."""
        recorded = []
        record_write = FluidiBuffer.record_write

        def spy(fbuf, index, event):
            recorded.append((fbuf.name, index, event.command_type))
            record_write(fbuf, index, event)

        monkeypatch.setattr(FluidiBuffer, "record_write", spy)
        runtime, y, expected = run_fluidicl_scale(
            n=16384, gpu_eff=0.4, cpu_eff=0.6
        )
        np.testing.assert_allclose(y, expected, rtol=1e-6)
        buf_y = next(b for b in runtime.buffers if b.name == "y")
        cpu = runtime.primary_front.index
        assert ("y", cpu, CommandType.ND_RANGE_KERNEL) in recorded
        assert buf_y.last_write[cpu] is not None
        runtime.drain()
        assert buf_y.last_write[cpu].is_complete
        assert buf_y.pending_write(cpu) is None


class TestBackgroundBookkeeping:
    """Regression tests: finish()/drain() accounting of background work."""

    def test_finish_prunes_completed_dh_threads(self):
        """A finish()-only workload (the common host-program shape) must
        not accumulate one completed dh process per kernel forever."""
        machine = build_machine()
        # Small chunks keep the stale CPU subkernels short, so each
        # kernel's dh read-back completes while the next kernel runs.
        config = FluidiCLConfig(initial_chunk_fraction=0.02,
                                chunk_step_fraction=0.02)
        runtime = FluidiCLRuntime(machine, config=config)
        n = 4096
        spec = make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.5,
                                 work_scale=32.0)
        x = runtime.create_buffer("x", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        kernels = 4
        for i in range(kernels):
            y = runtime.create_buffer(f"y{i}", (n,), np.float32)
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(n, 16), {"x": x, "y": y, "alpha": 2.0}
            )
            runtime.finish()
        # Only still-running dh threads may remain on the books.
        assert all(not p.triggered for p in runtime._dh_processes)
        assert len(runtime._dh_processes) < kernels
        runtime.drain()
        assert runtime._dh_processes == []

    def test_merge_commit_events_are_tracked_and_pruned(self):
        """The blocking kernel call returns only once its merge has
        written the anchor copy, so finish() has no commit to wait for."""
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        n = 16384
        spec = make_scale_kernel(n, gpu_eff=0.4, cpu_eff=0.6,
                                 work_scale=32.0)
        x = runtime.create_buffer("x", (n,), np.float32)
        y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": x, "y": y, "alpha": 2.0}
        )
        assert runtime.records[0].path == "merged"
        assert y.last_write[0].command_type is CommandType.ND_RANGE_KERNEL
        assert y.pending_write(0) is None
        runtime.finish()


class TestChunkerAccounting:
    def test_chunker_observations_use_launched_groups(self, monkeypatch):
        """Regression (§5.2): a covering slice executes
        ``launched_groups = chunk + surplus``; the adaptive chunker must be
        fed what actually ran, or seconds-per-work-group is systematically
        overestimated on multi-dimensional ranges."""
        from repro.core.chunking import AdaptiveChunker
        from repro.polybench import SyrkApp

        observed = []
        observe = AdaptiveChunker.observe

        def spy(self, groups, elapsed):
            observed.append(groups)
            return observe(self, groups, elapsed)

        monkeypatch.setattr(AdaptiveChunker, "observe", spy)
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine)
        app = SyrkApp(n=768)
        app.execute(runtime, check=False)
        runtime.drain()

        launches = [
            e for e in machine.tracer.instants(EventKind.SUBKERNEL)
            if not e.attrs["probing"]
        ]
        assert launches, "expected at least one non-probe subkernel"
        assert any(e.attrs["surplus_groups"] > 0 for e in launches), (
            "test needs a covering slice with surplus to be meaningful"
        )
        for event in launches:
            assert event.attrs["launched_groups"] == (
                event.attrs["chunk"] + event.attrs["surplus_groups"]
            )
        # one worker front: one observation per completed launch
        assert sorted(observed) == sorted(
            e.attrs["launched_groups"] for e in launches
        )
