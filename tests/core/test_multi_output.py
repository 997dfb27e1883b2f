"""Kernels with multiple output buffers and rank-3 NDRanges under FluidiCL.

Every out/inout buffer gets its own landing/orig helpers and its
own merge; these tests make sure nothing assumes "exactly one output".
"""

import numpy as np
import pytest

from repro.core.runtime import FluidiCLRuntime
from repro.harness.workloads import VolumeSquareApp
from repro.hw.cost import WorkGroupCost
from repro.hw.machine import build_machine
from repro.hw.specs import DeviceKind
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import SingleDeviceRuntime


def two_output_kernel(n, local=16, gpu_eff=0.4, cpu_eff=0.6):
    """``lo = x - 1; hi = x + 1``: two independent outputs per group."""

    def body(ctx):
        rows = ctx.rows()
        ctx["lo"][rows] = ctx["x"][rows] - 1.0
        ctx["hi"][rows] = ctx["x"][rows] + 1.0

    return KernelSpec(
        name="band",
        args=(buffer_arg("x"), buffer_arg("lo", Intent.OUT),
              buffer_arg("hi", Intent.OUT)),
        body=body,
        cost=WorkGroupCost(
            flops=2.0 * local * 32,
            bytes_read=local * 4 * 64.0,
            bytes_written=2 * local * 4 * 64.0,
            loop_iters=16,
            compute_efficiency={"cpu": cpu_eff, "gpu": gpu_eff},
            memory_efficiency={"cpu": cpu_eff, "gpu": gpu_eff},
        ),
    )


class TestTwoOutputs:
    def _run(self, gpu_eff, cpu_eff, n=8192):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        spec = two_output_kernel(n, gpu_eff=gpu_eff, cpu_eff=cpu_eff)
        x = np.arange(n, dtype=np.float32)
        bufs = {
            name: runtime.create_buffer(name, (n,), np.float32)
            for name in ("x", "lo", "hi")
        }
        runtime.enqueue_write_buffer(bufs["x"], x)
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16),
            {"x": bufs["x"], "lo": bufs["lo"], "hi": bufs["hi"]},
        )
        lo = np.zeros(n, dtype=np.float32)
        hi = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(bufs["lo"], lo)
        runtime.enqueue_read_buffer(bufs["hi"], hi)
        runtime.finish()
        runtime.drain()
        return runtime, x, lo, hi

    @pytest.mark.parametrize("gpu_eff,cpu_eff", [
        (0.4, 0.6), (0.9, 0.02), (0.005, 0.9),
    ])
    def test_both_outputs_correct(self, gpu_eff, cpu_eff):
        _rt, x, lo, hi = self._run(gpu_eff, cpu_eff)
        np.testing.assert_array_equal(lo, x - 1.0)
        np.testing.assert_array_equal(hi, x + 1.0)

    def test_merged_path_merges_every_output(self):
        runtime, _x, _lo, _hi = self._run(0.4, 0.6)
        record = runtime.records[0]
        if record.path == "merged":
            assert runtime.stats.extra["merges"] == 2

    def test_helper_buffers_recycled_for_all_outputs(self):
        runtime, _x, _lo, _hi = self._run(0.4, 0.6)
        # landing + orig per output, all returned to the pool.
        assert runtime.pool.in_use_count == 0


class TestRank3Workload:
    @pytest.mark.parametrize("factory", [
        lambda m: SingleDeviceRuntime(m, DeviceKind.GPU),
        lambda m: SingleDeviceRuntime(m, DeviceKind.CPU),
        FluidiCLRuntime,
    ], ids=["gpu", "cpu", "fluidicl"])
    def test_volume_app_correct_everywhere(self, factory):
        app = VolumeSquareApp(side=32)
        machine = build_machine()
        result = app.execute(factory(machine))
        assert result.correct

    def test_fluidicl_uses_covering_slices_in_3d(self):
        app = VolumeSquareApp(side=64)
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        result = app.execute(runtime)
        assert result.correct
        record = runtime.records[0]
        # 3-D windows rarely align with hyper-row boundaries: the covering
        # slices must have launched surplus (range-checked) groups.
        if record.subkernels > 1:
            assert record.surplus_groups > 0

    def test_static_partition_3d(self):
        from repro.baselines.static_partition import StaticPartitionRuntime

        app = VolumeSquareApp(side=32)
        machine = build_machine()
        result = app.execute(StaticPartitionRuntime(machine, 0.5))
        assert result.correct

    def test_side_validation(self):
        with pytest.raises(ValueError):
            VolumeSquareApp(side=30)
