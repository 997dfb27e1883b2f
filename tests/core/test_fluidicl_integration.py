"""Integration tests for the FluidiCL runtime on toy kernels.

These drive the whole cooperative machinery — dual enqueue, scheduler
thread, adaptive chunks, status/data shipping, abort protocol, diff+merge,
version tracking and DH read-back — and check both *correctness* (the data
that comes out) and *behaviour* (which regime ran).
"""

import numpy as np
import pytest

from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.ocl.ndrange import NDRange

from tests.conftest import (
    make_accumulate_kernel,
    make_scale_kernel,
    run_fluidicl_scale,
)


class TestRegimes:
    def test_balanced_kernel_uses_both_devices(self):
        runtime, y, expected = run_fluidicl_scale(
            n=4096, gpu_eff=0.5, cpu_eff=0.5
        )
        assert np.allclose(y, expected)
        record = runtime.records[0]
        assert record.gpu_groups > 0
        assert record.cpu_groups > 0
        assert record.path == "merged"

    def test_gpu_dominant_kernel(self):
        runtime, y, expected = run_fluidicl_scale(
            n=4096, gpu_eff=0.9, cpu_eff=0.02
        )
        assert np.allclose(y, expected)
        record = runtime.records[0]
        assert record.gpu_groups > record.cpu_groups
        assert record.path in ("gpu-only", "merged")

    def test_cpu_dominant_kernel_completes_on_cpu(self):
        runtime, y, expected = run_fluidicl_scale(
            n=1024, gpu_eff=0.005, cpu_eff=0.9
        )
        assert np.allclose(y, expected)
        record = runtime.records[0]
        assert record.path == "cpu-complete"
        assert record.cpu_groups == record.total_groups

    def test_work_accounting_covers_range(self):
        runtime, _y, _e = run_fluidicl_scale(n=4096, gpu_eff=0.5, cpu_eff=0.5)
        record = runtime.records[0]
        # Everything was computed by someone (overlap allowed).
        assert record.gpu_groups + record.cpu_groups >= record.total_groups


class TestInoutKernels:
    def _run(self, gpu_eff, cpu_eff, n=2048):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        spec = make_accumulate_kernel(n, gpu_eff=gpu_eff, cpu_eff=cpu_eff)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(n).astype(np.float32)
        y0 = rng.standard_normal(n).astype(np.float32)
        buf_x = runtime.create_buffer("x", (n,), np.float32)
        buf_y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(buf_x, x)
        runtime.enqueue_write_buffer(buf_y, y0)
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": buf_x, "y": buf_y}
        )
        out = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_y, out)
        runtime.finish()
        return out, x + y0

    @pytest.mark.parametrize("gpu_eff,cpu_eff", [
        (0.5, 0.5), (0.9, 0.05), (0.01, 0.9),
    ])
    def test_read_modify_write_correct(self, gpu_eff, cpu_eff):
        out, expected = self._run(gpu_eff, cpu_eff)
        assert np.allclose(out, expected)

    def test_applied_exactly_once(self):
        """Double-execution of overlap regions must not double-accumulate."""
        out, expected = self._run(0.5, 0.5)
        assert np.allclose(out, expected)  # not x + 2*y0 anywhere


class TestMultiKernelChains:
    def _chain(self, effs, n=1024):
        """Run scale kernels back to back: y = a1*x, z = a2*y."""
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n).astype(np.float32)
        bufs = {
            name: runtime.create_buffer(name, (n,), np.float32)
            for name in ("x", "y", "z")
        }
        runtime.enqueue_write_buffer(bufs["x"], x)
        spec1 = make_scale_kernel(n, gpu_eff=effs[0][0], cpu_eff=effs[0][1],
                                  name="k1")
        spec2 = make_scale_kernel(n, gpu_eff=effs[1][0], cpu_eff=effs[1][1],
                                  name="k2")
        runtime.enqueue_nd_range_kernel(
            spec1, NDRange(n, 16), {"x": bufs["x"], "y": bufs["y"], "alpha": 2.0}
        )
        runtime.enqueue_nd_range_kernel(
            spec2, NDRange(n, 16), {"x": bufs["y"], "y": bufs["z"], "alpha": 3.0}
        )
        out = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(bufs["z"], out)
        runtime.finish()
        return runtime, out, 6.0 * x

    def test_gpu_then_gpu(self):
        _rt, out, expected = self._chain([(0.9, 0.05), (0.9, 0.05)])
        assert np.allclose(out, expected)

    def test_gpu_then_cpu(self):
        _rt, out, expected = self._chain([(0.9, 0.05), (0.005, 0.9)])
        assert np.allclose(out, expected)

    def test_cpu_then_gpu_refreshes_gpu_copy(self):
        """After a CPU-complete kernel the GPU copy is stale; the next
        kernel must transparently refresh it (version tracking)."""
        runtime, out, expected = self._chain([(0.005, 0.9), (0.9, 0.05)])
        assert np.allclose(out, expected)
        # one worker, the refresh source: every refresh is the anchor's
        assert runtime.stats.extra["input_refreshes"] >= 1

    def test_cpu_then_cpu(self):
        _rt, out, expected = self._chain([(0.005, 0.9), (0.005, 0.9)])
        assert np.allclose(out, expected)

    def test_balanced_chain(self):
        _rt, out, expected = self._chain([(0.5, 0.5), (0.5, 0.5)])
        assert np.allclose(out, expected)


def reads_from(runtime, device):
    return runtime.stats.extra[f"reads_from[{device.name}]"]


class TestReadPaths:
    def test_read_after_cpu_complete_avoids_pcie(self):
        runtime, _y, _e = run_fluidicl_scale(n=1024, gpu_eff=0.005, cpu_eff=0.9)
        assert reads_from(runtime, runtime.cpu_device) >= 1
        assert reads_from(runtime, runtime.gpu_device) == 0

    def test_read_after_merge_comes_from_gpu(self):
        runtime, _y, _e = run_fluidicl_scale(n=4096, gpu_eff=0.9, cpu_eff=0.02)
        assert reads_from(runtime, runtime.gpu_device) >= 1

    def test_location_tracking_disabled_prefers_gpu(self):
        config = FluidiCLConfig(location_tracking=False)
        machine = build_machine()
        runtime = FluidiCLRuntime(machine, config=config)
        n = 256
        buf = runtime.create_buffer("b", (n,), np.float32)
        runtime.enqueue_write_buffer(buf, np.ones(n, dtype=np.float32))
        out = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(buf, out)
        runtime.finish()
        assert np.all(out == 1.0)
        assert reads_from(runtime, runtime.gpu_device) == 1

    def test_write_then_read_round_trip(self):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        data = np.arange(64, dtype=np.float32)
        buf = runtime.create_buffer("b", (64,), np.float32)
        runtime.enqueue_write_buffer(buf, data)
        out = np.zeros(64, dtype=np.float32)
        runtime.enqueue_read_buffer(buf, out)
        runtime.finish()
        assert np.array_equal(out, data)


class TestConfigToggles:
    @pytest.mark.parametrize("config", [
        FluidiCLConfig(abort_in_loops=False),
        FluidiCLConfig(loop_unroll=False),
        FluidiCLConfig(cpu_wg_split=False),
        FluidiCLConfig(use_buffer_pool=False),
        FluidiCLConfig(initial_chunk_fraction=0.5),
        FluidiCLConfig(chunk_step_fraction=0.0),
    ])
    def test_all_configs_stay_correct(self, config):
        _rt, y, expected = run_fluidicl_scale(
            n=2048, gpu_eff=0.4, cpu_eff=0.6, config=config
        )
        assert np.allclose(y, expected)

    def test_no_unroll_is_slower_when_cooperating(self):
        def total_time(config):
            runtime, _y, _e = run_fluidicl_scale(
                n=8192, gpu_eff=0.5, cpu_eff=0.5, config=config
            )
            return runtime.machine.now

        assert total_time(FluidiCLConfig(loop_unroll=False)) > total_time(
            FluidiCLConfig()
        )


class TestRuntimeHousekeeping:
    def test_records_accumulate(self):
        runtime, _y, _e = run_fluidicl_scale()
        assert len(runtime.records) == 1
        assert runtime.stats.kernels_enqueued == 1

    def test_pool_reused_across_kernels(self):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        n = 512
        spec = make_scale_kernel(n, gpu_eff=0.5, cpu_eff=0.5)
        buf_x = runtime.create_buffer("x", (n,), np.float32)
        buf_y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(buf_x, np.ones(n, dtype=np.float32))
        for _ in range(3):
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(n, 16),
                {"x": buf_x, "y": buf_y, "alpha": 2.0},
            )
        runtime.finish()
        runtime.drain()
        assert runtime.pool.hits > 0

    def test_drain_quiesces_everything(self):
        runtime, _y, _e = run_fluidicl_scale(n=2048, gpu_eff=0.4, cpu_eff=0.6)
        runtime.drain()
        assert all(p.triggered for p in runtime._dh_processes) or \
            not runtime._dh_processes

    def test_release_frees_pool(self):
        runtime, _y, _e = run_fluidicl_scale()
        runtime.drain()
        runtime.release()
        assert runtime.pool.idle_count == 0

    def test_kernel_record_summary_is_readable(self):
        runtime, _y, _e = run_fluidicl_scale()
        summary = runtime.records[0].summary()
        assert "scale" in summary
        assert "groups" in summary

    def test_bad_argument_type_rejected(self):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        spec = make_scale_kernel(64)
        with pytest.raises(TypeError):
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(64, 16), {"x": 1, "y": 2, "alpha": 3.0}
            )
