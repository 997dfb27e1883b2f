"""Robustness under degraded hardware: FluidiCL must stay correct and
adapt its work distribution when the machine changes under it (the paper's
"completely portable across different machines" claim, plus "able to adapt
to system load")."""

import dataclasses

import numpy as np
import pytest

from repro.core.runtime import FluidiCLRuntime
from repro.hw.interconnect import InterconnectSpec
from repro.hw.machine import build_machine
from repro.hw.specs import HOST_DDR3, PCIE_GEN2_X16, TESLA_C2070, XEON_W3550
from repro.ocl.ndrange import NDRange

from tests.conftest import make_scale_kernel

N = 16384
LOCAL = 16


def run_on(machine, gpu_eff=0.4, cpu_eff=0.6):
    runtime = FluidiCLRuntime(machine)
    spec = make_scale_kernel(N, LOCAL, gpu_eff=gpu_eff, cpu_eff=cpu_eff,
                             work_scale=32.0)
    x = np.arange(N, dtype=np.float32)
    buf_x = runtime.create_buffer("x", (N,), np.float32)
    buf_y = runtime.create_buffer("y", (N,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    runtime.enqueue_nd_range_kernel(
        spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y, "alpha": 2.0}
    )
    y = np.zeros(N, dtype=np.float32)
    runtime.enqueue_read_buffer(buf_y, y)
    runtime.finish()
    assert np.allclose(y, 2.0 * x), "results must survive hardware changes"
    return runtime.records[0], machine.now


class TestDegradedInterconnect:
    def test_slow_pcie_shifts_work_to_gpu_less(self):
        """A 20x slower PCIe link makes CPU results expensive to ship; the
        credited CPU share must drop, results must stay right."""
        fast_record, _t = run_on(build_machine())
        crippled = InterconnectSpec("pcie-degraded",
                                    latency=PCIE_GEN2_X16.latency * 10,
                                    bandwidth=PCIE_GEN2_X16.bandwidth / 20)
        slow_record, _t2 = run_on(build_machine(devices=[
            (TESLA_C2070, crippled), (XEON_W3550, HOST_DDR3)]))
        assert slow_record.cpu_share <= fast_record.cpu_share

    def test_extremely_slow_link_still_terminates(self):
        glacial = InterconnectSpec("glacial", latency=1e-3, bandwidth=1e6)
        record, elapsed = run_on(build_machine(devices=[
            (TESLA_C2070, glacial), (XEON_W3550, HOST_DDR3)]))
        assert record.total_groups == N // LOCAL
        assert elapsed > 0


class TestDegradedDevices:
    def test_slow_cpu_yields_gpu_dominance(self):
        record, _t = run_on(build_machine(devices=[
            (TESLA_C2070, PCIE_GEN2_X16), (XEON_W3550.scaled(0.05), HOST_DDR3)]))
        assert record.gpu_groups > record.cpu_groups

    def test_slow_gpu_yields_cpu_completion(self):
        record, _t = run_on(build_machine(devices=[
            (TESLA_C2070.scaled(0.01), PCIE_GEN2_X16), (XEON_W3550, HOST_DDR3)]))
        assert record.path == "cpu-complete"

    def test_faster_machine_is_faster(self):
        _r1, base = run_on(build_machine())
        _r2, fast = run_on(build_machine(devices=[
            (TESLA_C2070.scaled(4.0), PCIE_GEN2_X16),
            (XEON_W3550.scaled(4.0), HOST_DDR3)]))
        assert fast < base


class TestResourceExhaustion:
    def test_oversized_buffer_raises_oom(self):
        from repro.hw.memory import OutOfDeviceMemoryError

        small_gpu = dataclasses.replace(
            TESLA_C2070, name="tiny-gpu", mem_capacity=1 << 20
        )
        machine = build_machine(devices=[
            (small_gpu, PCIE_GEN2_X16), (XEON_W3550, HOST_DDR3)])
        runtime = FluidiCLRuntime(machine)
        with pytest.raises(OutOfDeviceMemoryError):
            runtime.create_buffer("big", (1 << 22,), np.float32)

    def test_helper_buffers_are_reused_across_kernels(self):
        """Repeated kernels must not leak pool buffers (peak bounded)."""
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        spec = make_scale_kernel(4096, gpu_eff=0.5, cpu_eff=0.5)
        buf_x = runtime.create_buffer("x", (4096,), np.float32)
        buf_y = runtime.create_buffer("y", (4096,), np.float32)
        runtime.enqueue_write_buffer(buf_x, np.ones(4096, dtype=np.float32))
        for _ in range(8):
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(4096, 16), {"x": buf_x, "y": buf_y, "alpha": 1.0}
            )
        runtime.finish()
        runtime.drain()
        # landing + orig per kernel, but pooled: a handful at most.
        assert runtime.pool.idle_count + runtime.pool.in_use_count <= 8
