"""Tests for the device-side executor: waves, windows, abort protocol."""

import numpy as np
import pytest

from repro.hw.cost import wg_time
from repro.kernels.transforms import (
    cpu_subkernel_variant,
    gpu_fluidic_variant,
    plain_variant,
)
from repro.ocl.executor import LaunchConfig, StatusBoard
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform

from tests.conftest import make_scale_kernel


@pytest.fixture
def platform(machine):
    return Platform(machine)


def launch(machine, device, queue, spec, n, local=16, variant=None,
           config=None):
    variant = variant or plain_variant(spec)
    x = device.create_buffer((n,), np.float32)
    y = device.create_buffer((n,), np.float32)
    x.write_from(np.ones(n, dtype=np.float32))
    kernel = Kernel(variant, {"x": x, "y": y, "alpha": 2.0})
    event = queue.enqueue_nd_range_kernel(kernel, NDRange(n, local), config)
    return event, y


class TestPlainExecution:
    def test_all_groups_executed(self, machine, platform):
        gpu = platform.gpu
        queue = platform.create_context().create_queue(gpu)
        spec = make_scale_kernel(256)
        event, y = launch(machine, gpu, queue, spec, 256)
        machine.run_until(event.done)
        result = event.result
        assert result.executed_groups == 16
        assert result.aborted_groups == 0
        assert np.all(y.array == 2.0)

    def test_wave_count_and_duration(self, machine, platform):
        gpu = platform.gpu
        queue = platform.create_context().create_queue(gpu)
        n_groups = 300  # 3 waves of <=112 on the GPU
        spec = make_scale_kernel(n_groups * 16)
        event, _y = launch(machine, gpu, queue, spec, n_groups * 16)
        machine.run_until(event.done)
        result = event.result
        assert result.waves == 3
        t_wg = wg_time(spec.cost, gpu.spec)
        expected = 3 * (gpu.spec.wave_overhead + t_wg)
        assert result.duration == pytest.approx(expected, rel=1e-6)

    def test_cpu_uses_eight_slots(self, machine, platform):
        cpu = platform.cpu
        queue = platform.create_context().create_queue(cpu)
        spec = make_scale_kernel(32 * 16)
        event, _y = launch(machine, cpu, queue, spec, 32 * 16)
        machine.run_until(event.done)
        assert event.result.waves == 4  # 32 groups / 8 slots

    def test_window_restricts_execution(self, machine, platform):
        gpu = platform.gpu
        queue = platform.create_context().create_queue(gpu)
        spec = make_scale_kernel(256)
        config = LaunchConfig(fid_start=4, fid_end=8)
        event, y = launch(machine, gpu, queue, spec, 256, config=config)
        machine.run_until(event.done)
        assert event.result.executed == [(4, 8)]
        assert np.all(y.array[64:128] == 2.0)
        assert np.all(y.array[:64] == 0)

    def test_empty_window(self, machine, platform):
        gpu = platform.gpu
        queue = platform.create_context().create_queue(gpu)
        spec = make_scale_kernel(256)
        config = LaunchConfig(fid_start=3, fid_end=3)
        event, _y = launch(machine, gpu, queue, spec, 256, config=config)
        machine.run_until(event.done)
        assert event.result.executed_groups == 0

    def test_bad_window_rejected(self):
        nd = NDRange(256, 16)
        with pytest.raises(ValueError):
            LaunchConfig(fid_start=10, fid_end=40).window(nd)


class TestStatusBoard:
    def test_finalize_drops_the_abort_price(self, engine):
        """The runtime's price refers back to its kernel plan, which
        refers to the board; dropping it at finalize breaks that cycle,
        so a finished kernel's buffers are freed without a GC pass."""
        board = StatusBoard(engine, 100)
        board.abort_price = lambda lo, hi: 1.0
        board.finalize()
        assert board.abort_price is None

    def test_initial_state(self, engine):
        board = StatusBoard(engine, 100)
        assert board.frontier == 100
        assert board.cpu_completed_groups == 0
        assert not board.covered(99)

    def test_update_moves_frontier_down(self, engine):
        board = StatusBoard(engine, 100)
        assert board.update(80)
        assert board.covered(80)
        assert not board.covered(79)
        assert board.cpu_completed_groups == 20

    def test_stale_update_discarded(self, engine):
        board = StatusBoard(engine, 100)
        board.update(60)
        assert not board.update(70)
        assert board.frontier == 60

    def test_finalized_discards(self, engine):
        board = StatusBoard(engine, 100)
        board.finalize()
        assert not board.update(10)

    def test_out_of_range_rejected(self, engine):
        board = StatusBoard(engine, 100)
        with pytest.raises(ValueError):
            board.update(101)

    def test_gate_fires_on_update(self, engine):
        board = StatusBoard(engine, 100)
        wait = board.gate.wait()
        board.update(50)
        assert engine.run(wait) == 50


class TestAbortProtocol:
    def _cooperative_launch(self, machine, platform, n_groups=64,
                            abort_in_loops=True, cover_at=0.0, frontier=0,
                            abort_price=None):
        """GPU kernel over ``n_groups`` with a status update arriving
        ``cover_at`` seconds *into the first wave*, claiming groups >=
        ``frontier``; an abort of the last wave adds merges costing
        ``abort_price`` seconds."""
        gpu = platform.gpu
        queue = platform.create_context().create_queue(gpu)
        spec = make_scale_kernel(n_groups * 16, gpu_eff=0.5, loop_iters=64)
        board = StatusBoard(machine.engine, n_groups)
        if abort_price is not None:
            board.abort_price = lambda lo, hi: abort_price
        variant = gpu_fluidic_variant(spec, abort_in_loops=abort_in_loops)
        config = LaunchConfig(status_board=board)
        wave_begin = gpu.spec.kernel_launch_overhead + gpu.spec.wave_overhead

        def deliver():
            yield machine.engine.timeout(max(0.0, wave_begin + cover_at))
            board.update(frontier)

        machine.engine.process(deliver())
        event, y = launch(machine, gpu, queue, spec, n_groups * 16,
                          variant=variant, config=config)
        machine.run_until(event.done)
        return event.result, y, spec, gpu

    def test_groups_covered_before_start_are_skipped(self, machine, platform):
        result, y, _spec, _gpu = self._cooperative_launch(
            machine, platform, cover_at=-1.0, frontier=32
        )
        assert result.executed == [(0, 32)]
        assert result.aborted_groups == 32
        assert np.all(y.array[: 32 * 16] == 2.0)
        assert np.all(y.array[32 * 16:] == 0)

    def test_full_coverage_aborts_whole_kernel(self, machine, platform):
        result, y, spec, gpu = self._cooperative_launch(
            machine, platform, cover_at=-1.0, frontier=0
        )
        assert result.executed_groups == 0
        assert result.ended_early

    def test_mid_wave_abort_ends_early(self, machine, platform):
        """With in-loop checks, coverage arriving mid-wave terminates the
        wave at the next loop-iteration boundary (section 6.4)."""
        spec = make_scale_kernel(64 * 16, gpu_eff=0.5, loop_iters=64)
        gpu = platform.gpu
        t_wg = wg_time(
            spec.cost, gpu.spec,
            gpu_fluidic_variant(spec).time_multiplier,
        )
        result, _y, _spec, _gpu = self._cooperative_launch(
            machine, platform, abort_in_loops=True,
            cover_at=t_wg * 0.3, frontier=0,
        )
        assert result.ended_early
        assert result.duration < 0.75 * t_wg

    def test_no_inner_checks_run_wave_to_completion(self, machine, platform):
        spec = make_scale_kernel(64 * 16, gpu_eff=0.5, loop_iters=64)
        gpu = platform.gpu
        variant = gpu_fluidic_variant(spec, abort_in_loops=False)
        t_wg = wg_time(spec.cost, gpu.spec, variant.time_multiplier)
        result, _y, _spec, _gpu = self._cooperative_launch(
            machine, platform, abort_in_loops=False,
            cover_at=t_wg * 0.3, frontier=0,
        )
        # The wave was already running: it completes despite the coverage.
        assert result.executed_groups == 64
        assert result.duration >= t_wg

    def test_partial_tail_abort_within_wave(self, machine, platform):
        """Coverage of the wave's tail mid-flight aborts nothing: the
        wave's slowest group sets its length, so the covered groups are
        computed anyway and the wave stays whole."""
        spec = make_scale_kernel(64 * 16, gpu_eff=0.5, loop_iters=64)
        gpu = platform.gpu
        t_wg = wg_time(
            spec.cost, gpu.spec, gpu_fluidic_variant(spec).time_multiplier
        )
        result, y, _spec, _gpu = self._cooperative_launch(
            machine, platform, cover_at=t_wg * 0.3, frontier=40
        )
        assert result.executed == [(0, 64)]
        assert result.aborted_groups == 0
        assert not result.ended_early
        assert np.all(y.array == 2.0)

    def _last_wave_covered(self, machine, platform, price_in_waves):
        """One-wave launch whose whole wave a status covers 30% into it;
        the abort would add merges costing ``price_in_waves`` group
        times."""
        spec = make_scale_kernel(64 * 16, gpu_eff=0.5, loop_iters=64)
        gpu = platform.gpu
        t_wg = wg_time(
            spec.cost, gpu.spec, gpu_fluidic_variant(spec).time_multiplier
        )
        assert 64 <= gpu.spec.concurrent_workgroups  # the last wave
        result, y, _spec, _gpu = self._cooperative_launch(
            machine, platform, cover_at=t_wg * 0.3, frontier=0,
            abort_price=price_in_waves * t_wg,
        )
        return result, y, t_wg

    def test_covered_last_wave_runs_whole_when_the_merge_costs_more(
            self, machine, platform):
        """About 0.7 of a group time is left after the abort's check
        boundary; merges priced at 0.8 of one do not pay, so the wave
        runs to its end and the launch records the declined abort."""
        result, y, t_wg = self._last_wave_covered(machine, platform, 0.8)
        assert result.executed == [(0, 64)]
        assert result.aborted_groups == 0
        assert not result.ended_early
        assert result.abort_declined
        assert result.duration >= t_wg
        assert np.all(y.array == 2.0)

    def test_covered_last_wave_aborts_when_the_merge_costs_less(
            self, machine, platform):
        result, _y, t_wg = self._last_wave_covered(machine, platform, 0.5)
        assert result.executed_groups == 0
        assert result.ended_early
        assert not result.abort_declined
        assert result.duration < 0.75 * t_wg

    def test_accounting_invariant(self, machine, platform):
        for frontier in (0, 17, 40, 64):
            result, _y, _s, _g = self._cooperative_launch(
                machine, platform, cover_at=1e-5, frontier=frontier
            )
            assert result.executed_groups + result.aborted_groups == 64


class TestWorkGroupSplitting:
    def test_small_allocation_splits_across_units(self, machine, platform):
        cpu = platform.cpu
        queue = platform.create_context().create_queue(cpu)
        spec = make_scale_kernel(256, cpu_eff=0.5)
        variant = cpu_subkernel_variant(spec, wg_split=True)
        config = LaunchConfig(fid_start=14, fid_end=16)
        event, y = launch(machine, cpu, queue, spec, 256,
                          variant=variant, config=config)
        machine.run_until(event.done)
        result = event.result
        assert result.split_used
        assert np.all(y.array[14 * 16:] == 2.0)
        t_wg = wg_time(spec.cost, cpu.spec)
        # Two groups split across eight units beat one serial slot pass.
        assert result.duration < cpu.spec.wave_overhead + t_wg

    def test_split_disabled_without_flag(self, machine, platform):
        cpu = platform.cpu
        queue = platform.create_context().create_queue(cpu)
        spec = make_scale_kernel(256, cpu_eff=0.5)
        variant = cpu_subkernel_variant(spec, wg_split=False)
        config = LaunchConfig(fid_start=14, fid_end=16)
        event, _y = launch(machine, cpu, queue, spec, 256,
                           variant=variant, config=config)
        machine.run_until(event.done)
        assert not event.result.split_used

    def test_split_not_used_for_large_allocations(self, machine, platform):
        cpu = platform.cpu
        queue = platform.create_context().create_queue(cpu)
        spec = make_scale_kernel(256, cpu_eff=0.5)
        variant = cpu_subkernel_variant(spec, wg_split=True)
        config = LaunchConfig(fid_start=0, fid_end=16)
        event, _y = launch(machine, cpu, queue, spec, 256,
                           variant=variant, config=config)
        machine.run_until(event.done)
        assert not event.result.split_used
