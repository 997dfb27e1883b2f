"""Tests for the StarPU-like task runtime and the SOCL facade."""

import numpy as np
import pytest

from repro.baselines.starpu import (
    PerfModel,
    SoclRuntime,
    calibrate_perfmodel,
)
from repro.baselines.starpu.tasks import DataHandle
from repro.hw.machine import build_machine
from repro.ocl.ndrange import NDRange
from repro.polybench import make_app

from tests.conftest import make_scale_kernel


def socl_program(runtime, n=512, gpu_eff=0.5, cpu_eff=0.5, kernels=1):
    spec = make_scale_kernel(n, gpu_eff=gpu_eff, cpu_eff=cpu_eff)
    x = np.arange(n, dtype=np.float32)
    buf_x = runtime.create_buffer("x", (n,), np.float32)
    buf_y = runtime.create_buffer("y", (n,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    for _ in range(kernels):
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": buf_x, "y": buf_y, "alpha": 2.0}
        )
    out = np.zeros(n, dtype=np.float32)
    runtime.enqueue_read_buffer(buf_y, out)
    runtime.finish()
    return out, 2.0 * x


class TestDataHandle:
    def test_registration(self, engine):
        handle = DataHandle(engine, "h", (8,), np.float32)
        assert handle.valid_on_host
        assert handle.nbytes == 32

    def test_device_buffers_lazy(self, machine):
        from repro.ocl.platform import Platform

        platform = Platform(machine)
        handle = DataHandle(machine.engine, "h", (8,), np.float32)
        assert not handle.is_valid_on(platform.gpu)
        buf = handle.buffer_on(platform.gpu)
        assert buf is handle.buffer_on(platform.gpu)  # cached

    def test_invalidate_everywhere_but(self, machine):
        from repro.ocl.platform import Platform

        platform = Platform(machine)
        handle = DataHandle(machine.engine, "h", (8,), np.float32)
        handle.buffer_on(platform.gpu)
        handle.mark_valid_on(platform.gpu)
        handle.invalidate_everywhere_but(platform.gpu)
        assert handle.is_valid_on(platform.gpu)
        assert not handle.valid_on_host


class TestPerfModel:
    def test_record_and_predict(self):
        model = PerfModel()
        model.record("k", 100, "cpu", 1.0)
        model.record("k", 100, "cpu", 3.0)
        assert model.predict("k", 100, "cpu") == pytest.approx(2.0)

    def test_unknown_returns_none(self):
        assert PerfModel().predict("k", 100, "gpu") is None

    def test_is_calibrated_for(self):
        model = PerfModel()
        model.record("k", 100, "cpu", 1.0)
        assert not model.is_calibrated_for("k", 100, ["cpu", "gpu"])
        model.record("k", 100, "gpu", 1.0)
        assert model.is_calibrated_for("k", 100, ["cpu", "gpu"])

    def test_calibrate_covers_both_workers(self):
        app = make_app("bicg", "test")
        model = PerfModel()

        def run_once(sched, m, offset=0):
            machine = build_machine()
            runtime = SoclRuntime(machine, sched, model=m,
                                  scheduler_offset=offset)
            app.execute(runtime, check=False)

        calibrate_perfmodel(run_once, model, runs=2)
        # Both kernels must have samples on both workers.
        assert model.calibrated_entries == 4


class TestSoclCorrectness:
    @pytest.mark.parametrize("scheduler", ["eager", "dmda", "roundrobin"])
    def test_single_kernel(self, machine, scheduler):
        runtime = SoclRuntime(machine, scheduler)
        out, expected = socl_program(runtime)
        assert np.allclose(out, expected)

    def test_repeated_kernels(self, machine):
        runtime = SoclRuntime(machine, "eager")
        out, expected = socl_program(runtime, kernels=3)
        assert np.allclose(out, expected)

    def test_unknown_scheduler(self, machine):
        with pytest.raises(KeyError):
            SoclRuntime(machine, "nonsense")

    @pytest.mark.parametrize("name", ["bicg", "syrk", "gesummv"])
    def test_apps_run_correctly_eager(self, name):
        app = make_app(name, "test")
        machine = build_machine()
        runtime = SoclRuntime(machine, "eager")
        result = app.execute(runtime)
        assert result.correct


class TestScheduling:
    def test_eager_first_task_goes_to_cpu(self, machine):
        """StarPU numbers CPU workers first: with both idle, the CPU gets
        the first task (which is how eager mis-schedules GPU-bound apps)."""
        runtime = SoclRuntime(machine, "eager")
        socl_program(runtime, kernels=1)
        cpu_worker = runtime.workers[0]
        assert cpu_worker.kind == "cpu"
        assert cpu_worker.tasks_executed == 1

    def test_dmda_picks_faster_device_when_calibrated(self):
        """A strongly GPU-biased kernel must land on the GPU under dmda."""
        app_n, gpu_eff, cpu_eff = 4096, 0.9, 0.01
        model = PerfModel()

        def run_once(sched, m, offset=0):
            machine = build_machine()
            runtime = SoclRuntime(machine, sched, model=m,
                                  scheduler_offset=offset)
            socl_program(runtime, n=app_n, gpu_eff=gpu_eff, cpu_eff=cpu_eff)

        calibrate_perfmodel(run_once, model, runs=4)
        machine = build_machine()
        runtime = SoclRuntime(machine, "dmda", model=model)
        socl_program(runtime, n=app_n, gpu_eff=gpu_eff, cpu_eff=cpu_eff)
        gpu_worker = runtime.workers[1]
        assert gpu_worker.kind == "gpu"
        assert gpu_worker.tasks_executed == 1

    def test_independent_tasks_run_concurrently(self, machine):
        """Two independent kernels on disjoint data use both workers."""
        runtime = SoclRuntime(machine, "eager")
        n = 512
        spec_a = make_scale_kernel(n, name="ka")
        spec_b = make_scale_kernel(n, name="kb")
        bufs = {
            name: runtime.create_buffer(name, (n,), np.float32)
            for name in ("x1", "y1", "x2", "y2")
        }
        data = np.ones(n, dtype=np.float32)
        runtime.enqueue_write_buffer(bufs["x1"], data)
        runtime.enqueue_write_buffer(bufs["x2"], data)
        runtime.enqueue_nd_range_kernel(
            spec_a, NDRange(n, 16),
            {"x": bufs["x1"], "y": bufs["y1"], "alpha": 2.0},
        )
        runtime.enqueue_nd_range_kernel(
            spec_b, NDRange(n, 16),
            {"x": bufs["x2"], "y": bufs["y2"], "alpha": 2.0},
        )
        runtime.finish()
        assert runtime.workers[0].tasks_executed == 1
        assert runtime.workers[1].tasks_executed == 1

    def test_dependent_tasks_respect_order(self, machine):
        """RAW dependency: the second kernel must see the first's output."""
        runtime = SoclRuntime(machine, "eager")
        n = 256
        spec = make_scale_kernel(n)
        buf_x = runtime.create_buffer("x", (n,), np.float32)
        buf_y = runtime.create_buffer("y", (n,), np.float32)
        buf_z = runtime.create_buffer("z", (n,), np.float32)
        runtime.enqueue_write_buffer(buf_x, np.ones(n, dtype=np.float32))
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": buf_x, "y": buf_y, "alpha": 2.0}
        )
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": buf_y, "y": buf_z, "alpha": 3.0}
        )
        out = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_z, out)
        runtime.finish()
        assert np.allclose(out, 6.0)

    def test_ping_pong_transfers_counted(self, machine):
        """Alternating workers on dependent kernels forces data movement."""
        runtime = SoclRuntime(machine, "roundrobin")
        n = 256
        spec = make_scale_kernel(n)
        buf_x = runtime.create_buffer("x", (n,), np.float32)
        buf_y = runtime.create_buffer("y", (n,), np.float32)
        buf_z = runtime.create_buffer("z", (n,), np.float32)
        runtime.enqueue_write_buffer(buf_x, np.ones(n, dtype=np.float32))
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": buf_x, "y": buf_y, "alpha": 2.0}
        )
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": buf_y, "y": buf_z, "alpha": 3.0}
        )
        runtime.finish()
        tasks = runtime.tasks
        assert tasks[1].transfer_bytes > 0  # y had to move between devices
