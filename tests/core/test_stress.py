"""Stress tests: long kernel pipelines, many buffers, mixed regimes.

These hammer the interactions the unit tests isolate: version tracking
across long chains, pool recycling under churn, stale-subkernel tails
bleeding into subsequent kernels, and reads interleaved with launches.
"""

import numpy as np
import pytest

from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.ocl.ndrange import NDRange

from tests.conftest import make_accumulate_kernel, make_scale_kernel

N = 2048
LOCAL = 16


@pytest.fixture
def runtime():
    return FluidiCLRuntime(build_machine())


class TestLongPipelines:
    def test_twenty_kernel_chain(self, runtime):
        """y <- 2*y twenty times, alternating device affinity each step."""
        x0 = np.ones(N, dtype=np.float32)
        buf_a = runtime.create_buffer("a", (N,), np.float32)
        buf_b = runtime.create_buffer("b", (N,), np.float32)
        runtime.enqueue_write_buffer(buf_a, x0)
        src, dst = buf_a, buf_b
        for i in range(20):
            gpu_eff, cpu_eff = (0.9, 0.05) if i % 2 == 0 else (0.01, 0.9)
            spec = make_scale_kernel(N, LOCAL, gpu_eff=gpu_eff,
                                     cpu_eff=cpu_eff, name=f"step{i}")
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(N, LOCAL),
                {"x": src, "y": dst, "alpha": 2.0},
            )
            src, dst = dst, src
        out = np.zeros(N, dtype=np.float32)
        runtime.enqueue_read_buffer(src, out)
        runtime.finish()
        runtime.drain()
        assert np.allclose(out, 2.0 ** 20)
        assert len(runtime.records) == 20

    def test_interleaved_reads_between_kernels(self, runtime):
        buf_x = runtime.create_buffer("x", (N,), np.float32)
        buf_y = runtime.create_buffer("y", (N,), np.float32)
        runtime.enqueue_write_buffer(buf_x, np.ones(N, dtype=np.float32))
        checkpoints = []
        for i in range(5):
            spec = make_scale_kernel(N, LOCAL, gpu_eff=0.5, cpu_eff=0.5,
                                     name=f"k{i}")
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(N, LOCAL),
                {"x": buf_x, "y": buf_y, "alpha": float(i + 1)},
            )
            snapshot = np.zeros(N, dtype=np.float32)
            runtime.enqueue_read_buffer(buf_y, snapshot)
            checkpoints.append((i + 1.0, snapshot))
        runtime.finish()
        for alpha, snapshot in checkpoints:
            assert np.allclose(snapshot, alpha), f"checkpoint alpha={alpha}"

    def test_accumulation_pipeline_exactness(self, runtime):
        """Repeated inout accumulation must apply exactly once per kernel
        regardless of how much overlap/duplication each execution had."""
        buf_x = runtime.create_buffer("x", (N,), np.float32)
        buf_acc = runtime.create_buffer("acc", (N,), np.float32)
        runtime.enqueue_write_buffer(buf_x, np.ones(N, dtype=np.float32))
        runtime.enqueue_write_buffer(buf_acc, np.zeros(N, dtype=np.float32))
        for i in range(10):
            gpu_eff = [0.9, 0.4, 0.02][i % 3]
            cpu_eff = [0.05, 0.6, 0.9][i % 3]
            spec = make_accumulate_kernel(N, LOCAL, gpu_eff=gpu_eff,
                                          cpu_eff=cpu_eff, name=f"acc{i}")
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_acc}
            )
        out = np.zeros(N, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_acc, out)
        runtime.finish()
        runtime.drain()
        np.testing.assert_array_equal(out, np.full(N, 10.0, dtype=np.float32))


class TestManyBuffers:
    def test_sixteen_independent_streams(self, runtime):
        """16 buffer pairs, 16 kernels, all through one runtime."""
        pairs = []
        for i in range(16):
            x = runtime.create_buffer(f"x{i}", (N,), np.float32)
            y = runtime.create_buffer(f"y{i}", (N,), np.float32)
            runtime.enqueue_write_buffer(
                x, np.full(N, float(i), dtype=np.float32)
            )
            pairs.append((i, x, y))
        spec = make_scale_kernel(N, LOCAL, gpu_eff=0.5, cpu_eff=0.5)
        for _i, x, y in pairs:
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(N, LOCAL), {"x": x, "y": y, "alpha": 3.0}
            )
        for i, _x, y in pairs:
            out = np.zeros(N, dtype=np.float32)
            runtime.enqueue_read_buffer(y, out)
            assert np.allclose(out, 3.0 * i)
        runtime.finish()
        runtime.drain()
        # Helper buffers were recycled, not accumulated: most acquisitions
        # hit the pool, which keeps idle buffers until device memory runs
        # short, so only the first kernels allocate.
        assert runtime.pool.in_use_count == 0
        assert runtime.pool.hits > runtime.pool.misses
        assert runtime.pool.misses < 3 * 16

    def test_memory_returns_to_baseline_after_release(self, runtime):
        gpu_used_start = runtime.gpu_device.memory.used
        x = runtime.create_buffer("x", (N,), np.float32)
        y = runtime.create_buffer("y", (N,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(N, dtype=np.float32))
        spec = make_scale_kernel(N, LOCAL)
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(N, LOCAL), {"x": x, "y": y, "alpha": 1.0}
        )
        runtime.finish()
        runtime.drain()
        runtime.release()
        assert runtime.gpu_device.memory.used == gpu_used_start
