"""Unit tests for device-set buffers and version tracking (section 5.3).

The fixture is the paper's pair: copy 0 on the GPU (the anchor), copy 1
on the CPU."""

import numpy as np
import pytest

from repro.core.buffers import DIRTY, FluidiBuffer
from repro.ocl.platform import Platform

GPU, CPU = 0, 1

@pytest.fixture
def fbuf(machine):
    platform = Platform(machine)
    gpu_buf = platform.gpu.create_buffer((16,), np.float32, name="b@gpu")
    cpu_buf = platform.cpu.create_buffer((16,), np.float32, name="b@cpu")
    return FluidiBuffer(machine.engine, "b", [gpu_buf, cpu_buf])


class TestLifecycle:
    def test_initially_coherent_at_version_zero(self, fbuf):
        assert fbuf.current(GPU)
        assert fbuf.current(CPU)
        assert fbuf.latest == 0

    def test_host_write_updates_both(self, fbuf):
        fbuf.commit_host_write(3)
        assert fbuf.latest == 3
        assert fbuf.current(GPU) and fbuf.current(CPU)

    def test_expect_write_dirties_both(self, fbuf):
        fbuf.expect_write(5)
        assert fbuf.version_of(GPU) == DIRTY
        assert fbuf.version_of(CPU) == DIRTY
        assert not fbuf.current(GPU)

    def test_expect_write_requires_newer_version(self, fbuf):
        fbuf.commit_host_write(3)
        with pytest.raises(ValueError):
            fbuf.expect_write(3)

    def test_commit_gpu(self, fbuf):
        fbuf.expect_write(4)
        fbuf.commit_front(GPU, 4)
        assert fbuf.current(GPU)
        assert not fbuf.current(CPU)

    def test_commit_cpu(self, fbuf):
        fbuf.expect_write(4)
        fbuf.commit_front(CPU, 4)
        assert fbuf.current(CPU)
        assert not fbuf.current(GPU)

    def test_dh_refresh_restores_cpu(self, fbuf):
        fbuf.expect_write(4)
        fbuf.commit_front(GPU, 4)
        assert fbuf.dh_pending_for(CPU)  # an anchor commit awaits read-back
        fbuf.mark_refreshed(CPU, 4)
        assert fbuf.current(CPU)
        assert not fbuf.dh_pending_for(CPU)

    @pytest.mark.parametrize("supersede", [
        lambda b: b.commit_host_write(5),
        lambda b: (b.expect_write(5), b.commit_front(CPU, 5)),
    ], ids=["host-write", "worker-commit"])
    def test_superseded_read_back_is_not_pending(self, fbuf, supersede):
        fbuf.expect_write(4)
        fbuf.commit_front(GPU, 4)
        supersede(fbuf)
        assert not fbuf.dh_pending_for(CPU)


class TestGates:
    def test_cpu_gate_fires_on_refresh(self, fbuf, machine):
        fbuf.expect_write(4)
        fbuf.commit_front(GPU, 4)
        wait = fbuf.gate(CPU).wait()
        fbuf.mark_refreshed(CPU, 4)
        assert machine.engine.run(wait) == 4

    def test_cpu_gate_fires_on_commit_cpu(self, fbuf, machine):
        fbuf.expect_write(4)
        wait = fbuf.gate(CPU).wait()
        fbuf.commit_front(CPU, 4)
        assert machine.engine.run(wait) == 4

    def test_cpu_gate_fires_on_host_write(self, fbuf, machine):
        wait = fbuf.gate(CPU).wait()
        fbuf.commit_host_write(9)
        assert machine.engine.run(wait) == 9


class TestValidation:
    def test_mismatched_device_copies(self, machine):
        platform = Platform(machine)
        gpu_buf = platform.gpu.create_buffer((16,), np.float32)
        cpu_buf = platform.cpu.create_buffer((8,), np.float32)
        with pytest.raises(ValueError):
            FluidiBuffer(machine.engine, "b", [gpu_buf, cpu_buf])

    def test_geometry_properties(self, fbuf):
        assert fbuf.shape == (16,)
        assert fbuf.dtype == np.float32
        assert fbuf.nbytes == 64
