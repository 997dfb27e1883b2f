"""Unit tests for the GPU buffer pool (paper section 6.1)."""

import dataclasses

import numpy as np
import pytest

from repro.core.pool import BufferPool
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.hw.memory import OutOfDeviceMemoryError
from repro.hw.specs import HOST_DDR3, PCIE_GEN2_X16, TESLA_C2070, XEON_W3550
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform

from tests.conftest import make_scale_kernel


@pytest.fixture
def gpu(machine):
    return Platform(machine).gpu


def wait(gpu, ready):
    """Simulated seconds until an allocation's ``ready`` event fires."""
    began = gpu.engine.now
    gpu.engine.run(ready)
    return gpu.engine.now - began


class TestPooling:
    def test_first_acquire_is_a_miss_with_cost(self, gpu):
        pool = BufferPool(gpu)
        buffer, ready = pool.acquire((64,), np.float32)
        assert wait(gpu, ready) == pytest.approx(
            BufferPool.allocation_time(buffer.nbytes))
        assert pool.misses == 1
        assert pool.hits == 0

    def test_reuse_is_free(self, gpu):
        pool = BufferPool(gpu)
        buffer, _ = pool.acquire((64,), np.float32)
        pool.release(buffer)
        again, ready = pool.acquire((64,), np.float32)
        assert again is buffer
        assert ready is None
        assert pool.hits == 1

    def test_different_shape_is_a_miss(self, gpu):
        pool = BufferPool(gpu)
        buffer, _ = pool.acquire((64,), np.float32)
        pool.release(buffer)
        _other, ready = pool.acquire((128,), np.float32)
        assert wait(gpu, ready) > 0
        assert pool.misses == 2

    def test_release_unknown_buffer(self, gpu):
        pool = BufferPool(gpu)
        foreign = gpu.create_buffer((4,), np.float32)
        with pytest.raises(ValueError):
            pool.release(foreign)

    def test_in_use_accounting(self, gpu):
        pool = BufferPool(gpu)
        buffer, _ = pool.acquire((64,), np.float32)
        assert pool.in_use_count == 1
        assert pool.idle_count == 0
        pool.release(buffer)
        assert pool.in_use_count == 0
        assert pool.idle_count == 1


class TestDisabledPool:
    def test_every_acquire_allocates(self, gpu):
        pool = BufferPool(gpu, enabled=False)
        a, ready = pool.acquire((64,), np.float32)
        assert wait(gpu, ready) > 0
        pool.release(a)
        _b, ready = pool.acquire((64,), np.float32)
        assert wait(gpu, ready) > 0
        assert pool.misses == 2

    def test_release_frees_device_memory(self, gpu):
        pool = BufferPool(gpu, enabled=False)
        used_before = gpu.memory.used
        buffer, _ = pool.acquire((1024,), np.float32)
        pool.release(buffer)
        assert gpu.memory.used == used_before


def small_gpu_machine(capacity):
    small_gpu = dataclasses.replace(TESLA_C2070, name="small-gpu",
                                    mem_capacity=capacity)
    return build_machine(devices=[(small_gpu, PCIE_GEN2_X16),
                                  (XEON_W3550, HOST_DDR3)])


class TestTrimAndDrain:
    """§6.1: idle buffers are trimmed only when an allocation would not
    otherwise fit, least recently released first; ``drain`` frees them
    all."""

    def test_miss_frees_least_recently_released_first(self):
        gpu = Platform(small_gpu_machine(4096)).gpu
        pool = BufferPool(gpu)
        older = pool.acquire((256,), np.float32)[0]
        newer = pool.acquire((256,), np.float32)[0]
        other = pool.acquire((256,), np.int32)[0]
        pool.release(older)
        pool.release(other)
        pool.release(newer)
        assert gpu.memory.free == 1024
        # Three KiB fit only after two idle buffers go: the two released
        # first, whatever their shape.
        big, _ready = pool.acquire((768,), np.float32)
        assert older.released and other.released
        assert not newer.released
        assert pool.idle_count == 1
        assert big.nbytes == 3072 and not big.released

    def test_miss_that_fits_frees_nothing(self, gpu):
        pool = BufferPool(gpu)
        idle = pool.acquire((64,), np.float32)[0]
        pool.release(idle)
        pool.acquire((128,), np.float32)
        assert not idle.released
        assert pool.idle_count == 1

    def test_hopeless_miss_keeps_the_pool(self):
        gpu = Platform(small_gpu_machine(4096)).gpu
        pool = BufferPool(gpu)
        idle = pool.acquire((256,), np.float32)[0]
        pool.release(idle)
        with pytest.raises(OutOfDeviceMemoryError):
            pool.acquire((2048,), np.float32)
        assert not idle.released
        assert pool.idle_count == 1

    def _runtime_with_idle_helpers(self):
        """A cooperative kernel on a 1 MiB GPU leaves its helpers idle."""
        runtime = FluidiCLRuntime(small_gpu_machine(1 << 20))
        n = 32768  # 128 KiB per buffer
        x = runtime.create_buffer("x", (n,), np.float32)
        y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        runtime.enqueue_nd_range_kernel(
            make_scale_kernel(n, gpu_eff=0.3, cpu_eff=0.5, work_scale=32.0),
            NDRange(n, 16), {"x": x, "y": y, "alpha": 2.0})
        runtime.finish()
        runtime.drain()
        assert runtime.pool.in_use_count == 0
        assert runtime.pool.idle_count >= 2
        return runtime

    def test_create_buffer_frees_idle_helpers_to_fit(self):
        runtime = self._runtime_with_idle_helpers()
        memory = runtime.gpu_device.memory
        nbytes = int(memory.free) + 4
        assert nbytes <= memory.free + runtime.pool.idle_bytes
        idle_before = runtime.pool.idle_count
        big = runtime.create_buffer("big", (nbytes // 4,), np.float32)
        assert big.nbytes == nbytes
        assert 0 < runtime.pool.idle_count < idle_before

    def test_create_buffer_still_fails_when_the_pool_cannot_help(self):
        runtime = self._runtime_with_idle_helpers()
        memory = runtime.gpu_device.memory
        nbytes = int(memory.free + runtime.pool.idle_bytes) + 4
        idle_before = runtime.pool.idle_count
        with pytest.raises(OutOfDeviceMemoryError):
            runtime.create_buffer("huge", (nbytes // 4,), np.float32)
        assert runtime.pool.idle_count == idle_before

    def test_drain_frees_everything_idle(self, gpu):
        pool = BufferPool(gpu)
        used_before = gpu.memory.used
        buffer, _ = pool.acquire((64,), np.float32)
        pool.release(buffer)
        pool.drain()
        assert gpu.memory.used == used_before
        assert pool.idle_count == 0

    def test_allocation_time_scales_with_size(self):
        small = BufferPool.allocation_time(1024)
        large = BufferPool.allocation_time(64 << 20)
        assert large > small
