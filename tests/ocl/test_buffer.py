"""Unit tests for device buffers and their discrete address spaces."""

import numpy as np
import pytest

from repro.hw.memory import OutOfDeviceMemoryError
from repro.kernels.transforms import plain_variant
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform

from tests.conftest import make_accumulate_kernel, make_scale_kernel


@pytest.fixture
def gpu(machine):
    return Platform(machine).gpu


@pytest.fixture
def cpu(machine):
    return Platform(machine).cpu


class TestBuffer:
    def test_zero_initialized(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        out = np.ones(4, dtype=np.float32)
        buf.read_into(out)
        assert np.all(out == 0)
        assert np.all(buf.snapshot() == 0)
        assert np.all(buf.view == 0)
        assert np.all(buf.array == 0)

    def test_nbytes(self, gpu):
        buf = gpu.create_buffer((8, 8), np.float64)
        assert buf.nbytes == 8 * 8 * 8

    def test_write_and_read(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        data = np.array([1, 2, 3, 4], dtype=np.float32)
        buf.write_from(data)
        out = np.zeros(4, dtype=np.float32)
        buf.read_into(out)
        assert np.array_equal(out, data)

    def test_write_casts_dtype(self, gpu):
        buf = gpu.create_buffer((2,), np.float32)
        buf.write_from(np.array([1.5, 2.5], dtype=np.float64))
        assert buf.array.dtype == np.float32

    def test_discrete_address_spaces(self, gpu, cpu):
        gpu_buf = gpu.create_buffer((4,), np.float32, name="b")
        cpu_buf = cpu.create_buffer((4,), np.float32, name="b")
        gpu_buf.write_from(np.ones(4, dtype=np.float32))
        assert np.all(cpu_buf.array == 0), "device copies must be independent"

    def test_copy_from_same_device(self, gpu):
        a = gpu.create_buffer((4,), np.float32)
        b = gpu.create_buffer((4,), np.float32)
        a.write_from(np.arange(4, dtype=np.float32))
        b.copy_from(a)
        assert np.array_equal(b.array, a.array)

    def test_copy_from_other_device_rejected(self, gpu, cpu):
        a = gpu.create_buffer((4,), np.float32)
        b = cpu.create_buffer((4,), np.float32)
        with pytest.raises(ValueError):
            b.copy_from(a)

    def test_snapshot_is_independent(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        snap = buf.snapshot()
        buf.write_from(np.ones(4, dtype=np.float32))
        assert np.all(snap == 0)

    def test_release_frees_memory(self, gpu):
        used_before = gpu.memory.used
        buf = gpu.create_buffer((1024,), np.float32)
        assert gpu.memory.used > used_before
        buf.release()
        assert gpu.memory.used == used_before

    def test_use_after_release(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        buf.write_from(buf.freeze(np.ones(4)))
        buf.release()
        with pytest.raises(RuntimeError):
            _ = buf.array
        with pytest.raises(RuntimeError):
            _ = buf.view

    def test_double_release_is_noop(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        buf.release()
        buf.release()

    def test_allocation_respects_capacity(self, machine):
        device = Platform(machine).gpu
        too_big = int(device.memory.capacity) + 1
        with pytest.raises(OutOfDeviceMemoryError):
            device.create_buffer((too_big,), np.uint8)

    def test_partial_region_write(self, gpu):
        buf = gpu.create_buffer((8,), np.float32)
        data = np.arange(8, dtype=np.float32)
        buf.write_from(data, region=slice(2, 5))
        assert np.array_equal(buf.array[2:5], data[2:5])
        assert np.all(buf.array[:2] == 0)

    def test_read_into_non_contiguous_destination(self, gpu):
        buf = gpu.create_buffer((16,), np.float32)
        buf.write_from(np.arange(16, dtype=np.float32))
        out = np.zeros((4, 4), dtype=np.float32).T
        buf.read_into(out)
        assert np.array_equal(out, np.arange(16).reshape(4, 4))


class TestCopyOnWrite:
    """One frozen snapshot per host write, aliased until a kernel writes."""

    def test_freeze_casts_copies_and_locks(self, gpu):
        buf = gpu.create_buffer((2, 2), np.float32)
        host = np.arange(4, dtype=np.float64)
        frozen = buf.freeze(host)
        assert frozen.dtype == np.float32 and frozen.shape == (2, 2)
        assert not frozen.flags.writeable
        assert not np.shares_memory(frozen, host)

    def test_copies_alias_one_frozen_array(self, gpu, cpu):
        a = gpu.create_buffer((4,), np.float32)
        b = cpu.create_buffer((4,), np.float32)
        pristine = gpu.create_buffer((4,), np.float32)
        frozen = a.freeze(np.arange(4))
        a.write_from(frozen)
        b.write_from(frozen)
        pristine.copy_from(a)
        for buf in (a, b, pristine):
            assert buf.view is frozen

    def test_writable_source_is_copied(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        host = np.arange(4, dtype=np.float32)
        buf.write_from(host)
        host[:] = -7
        assert np.array_equal(buf.view, np.arange(4))

    def test_first_writable_access_materializes(self, gpu, cpu):
        a = gpu.create_buffer((4,), np.float32)
        b = cpu.create_buffer((4,), np.float32)
        frozen = a.freeze(np.arange(4))
        a.write_from(frozen)
        b.write_from(frozen)
        a.array[0] = 99
        assert not np.shares_memory(a.view, frozen)
        assert np.array_equal(frozen, np.arange(4))
        assert np.array_equal(b.view, np.arange(4))

    @pytest.mark.parametrize("make", [make_scale_kernel,
                                      make_accumulate_kernel])
    def test_kernel_write_leaves_other_copies(self, gpu, cpu, make):
        n = 64
        spec = make(n)
        frozen = {}
        copies = {}
        for name in ("x", "y"):
            copies[name] = (gpu.create_buffer((n,), np.float32),
                            cpu.create_buffer((n,), np.float32))
            frozen[name] = copies[name][0].freeze(np.arange(n))
            for buf in copies[name]:
                buf.write_from(frozen[name])
        args = {name: pair[0] for name, pair in copies.items()}
        if "alpha" in {a.name for a in spec.args}:
            args["alpha"] = 2.0
        Kernel(plain_variant(spec), args).run_span(NDRange(n, 16), 0, 4)
        assert not np.array_equal(copies["y"][0].view, np.arange(n))
        for name in ("x", "y"):
            assert np.array_equal(frozen[name], np.arange(n))
            assert copies[name][1].view is frozen[name]
        # declared ``in``: read in place, never copied
        assert copies["x"][0].view is frozen["x"]

    def test_writing_an_in_argument_fails_loudly(self, gpu, cpu):
        n = 64
        spec = make_scale_kernel(n)

        def body(ctx):
            ctx["x"][ctx.rows()] = 0.0

        spec = spec.with_version("writes-x", body)
        x, x_cpu = (gpu.create_buffer((n,), np.float32),
                    cpu.create_buffer((n,), np.float32))
        frozen = x.freeze(np.arange(n))
        x.write_from(frozen)
        x_cpu.write_from(frozen)
        y = gpu.create_buffer((n,), np.float32)
        kernel = Kernel(plain_variant(spec), {"x": x, "y": y, "alpha": 1.0})
        with pytest.raises(ValueError, match="read-only"):
            kernel.run_span(NDRange(n, 16), 0, 4)
        assert np.array_equal(x_cpu.view, np.arange(n))
        assert np.array_equal(frozen, np.arange(n))
