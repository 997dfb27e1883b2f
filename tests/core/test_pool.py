"""Unit tests for the GPU buffer pool (paper section 6.1).

The pool hands helpers out as sub-buffers carved from device
allocations; ``misses`` counts allocations and ``hits`` helpers served
without one.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.pool import BufferPool
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.hw.memory import OutOfDeviceMemoryError
from repro.hw.specs import HOST_DDR3, PCIE_GEN2_X16, TESLA_C2070, XEON_W3550
from repro.obs.events import EventKind
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform

from tests.conftest import make_scale_kernel

F32 = np.float32


@pytest.fixture
def gpu(machine):
    return Platform(machine).gpu


def wait(gpu, ready):
    """Simulated seconds until an allocation's ``ready`` event fires."""
    began = gpu.engine.now
    gpu.engine.run(ready)
    return gpu.engine.now - began


def one(pool, shape, dtype=F32):
    """Acquire a single helper; returns ``(buffer, ready)``."""
    (buffer,), ready = pool.acquire([(shape, dtype)])
    return buffer, ready


class TestPooling:
    def test_first_acquire_is_a_miss_with_cost(self, gpu):
        pool = BufferPool(gpu)
        buffer, ready = one(pool, (64,))
        assert wait(gpu, ready) == pytest.approx(
            BufferPool.allocation_time(buffer.nbytes))
        assert pool.misses == 1
        assert pool.hits == 0

    def test_reuse_is_free(self, gpu):
        """A hit costs nothing: no wait and no new device allocation."""
        pool = BufferPool(gpu)
        buffer, _ = one(pool, (64,))
        pool.release(buffer)
        allocations = gpu.memory.allocation_count
        again, ready = one(pool, (64,))
        assert ready is None
        assert (pool.hits, pool.misses) == (1, 1)
        assert gpu.memory.allocation_count == allocations
        assert again.nbytes == buffer.nbytes and not again.released

    def test_larger_shape_is_a_miss(self, gpu):
        pool = BufferPool(gpu)
        buffer, _ = one(pool, (64,))
        pool.release(buffer)
        _other, ready = one(pool, (128,))
        assert wait(gpu, ready) > 0
        assert pool.misses == 2

    def test_release_unknown_buffer(self, gpu):
        pool = BufferPool(gpu)
        foreign = gpu.create_buffer((4,), F32)
        with pytest.raises(ValueError):
            pool.release(foreign)

    def test_in_use_accounting(self, gpu):
        pool = BufferPool(gpu)
        buffer, _ = one(pool, (64,))
        assert pool.in_use_count == 1
        assert pool.idle_count == 0
        pool.release(buffer)
        assert pool.in_use_count == 0
        assert pool.idle_count == 1


class TestSubBuffers:
    """Several helpers per device allocation (``clCreateSubBuffer``)."""

    def test_one_acquisition_makes_one_allocation(self, traced_machine):
        gpu = Platform(traced_machine).gpu
        pool = BufferPool(gpu)
        allocations = gpu.memory.allocation_count
        buffers, ready = pool.acquire([((64,), F32), ((32, 8), np.int16),
                                       ((5,), np.float64)])
        waited = wait(gpu, ready)
        nbytes = 64 * 4 + 32 * 8 * 2 + 5 * 8
        assert [b.shape for b in buffers] == [(64,), (32, 8), (5,)]
        assert (pool.misses, pool.hits) == (1, 0)
        assert gpu.memory.allocation_count == allocations + 1
        assert gpu.memory.used == nbytes
        (span,) = traced_machine.tracer.event_spans(EventKind.POOL)
        assert span.name == "alloc" and span.attrs["nbytes"] == nbytes
        assert span.duration == waited == pytest.approx(
            BufferPool.allocation_time(nbytes))

    def test_smaller_request_fits_an_idle_allocation_of_another_shape(self, gpu):
        pool = BufferPool(gpu)
        buffer, _ = one(pool, (256,), F32)
        pool.release(buffer)
        smaller, ready = one(pool, (10, 10), np.int16)
        assert ready is None
        assert (pool.hits, pool.misses) == (1, 1)
        assert smaller.shape == (10, 10) and smaller.dtype == np.int16

    def test_several_helpers_come_out_of_one_idle_allocation(self, gpu):
        pool = BufferPool(gpu)
        buffer, _ = one(pool, (256,))
        pool.release(buffer)
        allocations = gpu.memory.allocation_count
        (a, b), ready = pool.acquire([((64,), F32), ((128,), F32)])
        assert ready is None
        assert (pool.hits, pool.misses) == (2, 1)
        assert gpu.memory.allocation_count == allocations
        # what is left of the allocation is not idle: a third helper misses
        _c, ready = one(pool, (16,))
        assert ready is not None and pool.misses == 2

    def test_helpers_go_into_the_tightest_idle_allocation(self, gpu):
        pool = BufferPool(gpu)
        big, _ = one(pool, (256,))
        small, _ = one(pool, (128,))
        pool.release(big)
        pool.release(small)
        # 400 B fits both; it takes the 512 B allocation, so the 1 KiB one
        # is still idle for the next request
        _a, ready = one(pool, (100,))
        assert ready is None
        _b, ready = one(pool, (250,))
        assert ready is None
        assert (pool.hits, pool.misses) == (2, 2)

    def test_what_does_not_fit_shares_one_new_allocation(self, gpu):
        pool = BufferPool(gpu)
        buffer, _ = one(pool, (64,))
        pool.release(buffer)
        used = gpu.memory.used
        _buffers, ready = pool.acquire([((64,), F32), ((32,), F32),
                                        ((16,), F32)])
        assert (pool.hits, pool.misses) == (1, 2)
        assert gpu.memory.used == used + (32 + 16) * 4
        assert wait(gpu, ready) == pytest.approx(
            BufferPool.allocation_time((32 + 16) * 4))

    def test_allocation_stays_in_use_until_its_last_sub_buffer_returns(
            self, gpu):
        pool = BufferPool(gpu)
        (a, b), _ = pool.acquire([((64,), F32), ((64,), F32)])
        pool.release(a)
        assert pool.idle_count == 0 and pool.in_use_count == 1
        _c, ready = one(pool, (16,))
        assert ready is not None
        pool.release(b)
        assert pool.idle_count == 1

    def test_a_released_sub_buffer_is_a_dead_handle(self, gpu):
        pool = BufferPool(gpu)
        area, _ = one(pool, (64,))
        source = gpu.create_buffer((64,), F32)
        pool.release(area)
        assert area.released
        frozen = area.freeze(np.ones(64, dtype=F32))
        for late_use in (lambda: area.write_from(frozen),
                         lambda: area.copy_from(source),
                         lambda: source.copy_from(area),
                         lambda: area.read_into(np.empty(64, dtype=F32)),
                         lambda: area.snapshot(),
                         lambda: area.view):
            with pytest.raises(RuntimeError, match="use after release"):
                late_use()
        # and it is not handed out again: the next acquisition is a new one
        again, _ = one(pool, (64,))
        assert again is not area and not again.released

    def test_releasing_a_sub_buffer_frees_no_device_memory(self, gpu):
        pool = BufferPool(gpu)
        (a, b), _ = pool.acquire([((64,), F32), ((64,), F32)])
        used = gpu.memory.used
        pool.release(a)
        pool.release(b)
        assert gpu.memory.used == used


class TestDisabledPool:
    def test_every_acquire_allocates(self, gpu):
        pool = BufferPool(gpu, enabled=False)
        a, ready = one(pool, (64,))
        assert wait(gpu, ready) > 0
        pool.release(a)
        _b, ready = one(pool, (64,))
        assert wait(gpu, ready) > 0
        assert pool.misses == 2

    def test_release_frees_device_memory(self, gpu):
        pool = BufferPool(gpu, enabled=False)
        used_before = gpu.memory.used
        buffer, _ = one(pool, (1024,))
        pool.release(buffer)
        assert gpu.memory.used == used_before

    def test_allocation_is_freed_when_its_last_sub_buffer_returns(self, gpu):
        pool = BufferPool(gpu, enabled=False)
        used_before = gpu.memory.used
        (a, b), _ = pool.acquire([((1024,), F32), ((256,), F32)])
        assert pool.misses == 1
        pool.release(a)
        assert gpu.memory.used == used_before + 1280 * 4
        pool.release(b)
        assert gpu.memory.used == used_before
        assert pool.idle_count == 0


def small_gpu_machine(capacity):
    small_gpu = dataclasses.replace(TESLA_C2070, name="small-gpu",
                                    mem_capacity=capacity)
    return build_machine(devices=[(small_gpu, PCIE_GEN2_X16),
                                  (XEON_W3550, HOST_DDR3)])


class TestTrimAndDrain:
    """§6.1: idle allocations are freed, whole, only when an allocation
    would not otherwise fit, least recently idled first; ``drain`` frees
    them all."""

    def test_miss_frees_least_recently_released_first(self):
        gpu = Platform(small_gpu_machine(4096)).gpu
        pool = BufferPool(gpu)
        older = one(pool, (256,), F32)[0]
        newer = one(pool, (320,), F32)[0]
        other = one(pool, (192,), np.int32)[0]
        pool.release(older)
        pool.release(other)
        pool.release(newer)
        assert gpu.memory.free == 1024
        # 2.5 KiB fits no idle allocation, and fits the device only after
        # two of them go: the two idled first, whatever their shape.
        big, _ready = one(pool, (640,), F32)
        assert pool.idle_count == 1
        assert pool.idle_bytes == newer.nbytes == 1280
        assert gpu.memory.used == 1280 + 2560
        assert big.nbytes == 2560 and not big.released

    def test_miss_that_fits_frees_nothing(self, gpu):
        pool = BufferPool(gpu)
        idle = one(pool, (64,))[0]
        pool.release(idle)
        used = gpu.memory.used
        one(pool, (128,))
        assert pool.idle_count == 1
        assert gpu.memory.used == used + 512

    def test_hopeless_miss_keeps_the_pool(self):
        gpu = Platform(small_gpu_machine(4096)).gpu
        pool = BufferPool(gpu)
        idle = one(pool, (256,))[0]
        pool.release(idle)
        with pytest.raises(OutOfDeviceMemoryError):
            one(pool, (2048,))
        assert pool.idle_count == 1 and pool.idle_bytes == 1024
        assert gpu.memory.used == 1024

    def test_hopeless_miss_returns_the_allocations_it_carved(self):
        gpu = Platform(small_gpu_machine(4096)).gpu
        pool = BufferPool(gpu)
        idle = one(pool, (256,))[0]
        pool.release(idle)
        with pytest.raises(OutOfDeviceMemoryError):
            pool.acquire([((64,), F32), ((2048,), F32)])
        assert (pool.hits, pool.misses) == (0, 1)
        assert pool.idle_count == 1 and pool.in_use_count == 0
        # the idle allocation is whole again
        _buffer, ready = one(pool, (256,))
        assert ready is None

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
        buffer, _ = one(pool, (64,))
        pool.release(buffer)
        pool.drain()
        assert gpu.memory.used == used_before
        assert pool.idle_count == 0

    def test_allocation_time_scales_with_size(self):
        small = BufferPool.allocation_time(1024)
        large = BufferPool.allocation_time(64 << 20)
        assert large > small
