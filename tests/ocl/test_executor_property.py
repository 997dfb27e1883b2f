"""Property-based tests of the executor's abort protocol.

Under *arbitrary* monotone status-update schedules, the executor must
(a) account for every work-group exactly once (executed or aborted),
(b) never execute a work-group that was CPU-covered before its wave began,
(c) execute every work-group below the final frontier.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.machine import build_machine
from repro.kernels.transforms import gpu_fluidic_variant
from repro.ocl.executor import LaunchConfig, StatusBoard
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform

from tests.conftest import make_scale_kernel

N_GROUPS = 64
LOCAL = 16


@settings(max_examples=40, deadline=None)
@given(
    updates=st.lists(
        st.tuples(
            st.floats(0.0, 2.0),            # arrival time as fraction of t_wg
            st.integers(0, N_GROUPS),       # frontier value
        ),
        min_size=0, max_size=6,
    ),
    abort_in_loops=st.booleans(),
)
def test_abort_accounting_invariants(updates, abort_in_loops):
    machine = build_machine()
    platform = Platform(machine)
    gpu = platform.gpu
    queue = platform.create_context().create_queue(gpu)
    spec = make_scale_kernel(N_GROUPS * LOCAL, LOCAL, gpu_eff=0.5,
                             loop_iters=32)
    variant = gpu_fluidic_variant(spec, abort_in_loops=abort_in_loops)
    board = StatusBoard(machine.engine, N_GROUPS)

    t_wg = Kernel(variant, _args(gpu)).wg_seconds(gpu.spec)

    # Make frontier values monotone non-increasing (as real status
    # messages are) and schedule their delivery.
    frontiers = sorted((f for _t, f in updates), reverse=True)
    times = sorted(t for t, _f in updates)
    for at, frontier in zip(times, frontiers):
        def deliver(at=at, frontier=frontier):
            yield machine.engine.timeout(at * t_wg * 3)
            board.update(frontier)
        machine.engine.process(deliver())

    x = gpu.create_buffer((N_GROUPS * LOCAL,), np.float32)
    y = gpu.create_buffer((N_GROUPS * LOCAL,), np.float32)
    x.write_from(np.ones(N_GROUPS * LOCAL, dtype=np.float32))
    kernel = Kernel(variant, {"x": x, "y": y, "alpha": 2.0})
    event = queue.enqueue_nd_range_kernel(
        kernel, NDRange(N_GROUPS * LOCAL, LOCAL),
        LaunchConfig(status_board=board),
    )
    machine.run_until(event.done)
    result = event.result

    # (a) exact accounting
    assert result.executed_groups + result.aborted_groups == N_GROUPS
    # executed ranges are disjoint and ordered
    flat = [fid for lo, hi in result.executed for fid in range(lo, hi)]
    assert flat == sorted(set(flat))
    # (c) everything below the final frontier was executed by the GPU
    final_frontier = board.frontier
    for fid in range(min(final_frontier, N_GROUPS)):
        assert fid in set(flat), f"group {fid} below frontier not executed"
    # data check: executed groups wrote their block
    for lo, hi in result.executed:
        block = y.array[lo * LOCAL:hi * LOCAL]
        assert np.all(block == 2.0)


def _args(gpu):
    return {
        "x": gpu.create_buffer((N_GROUPS * LOCAL,), np.float32),
        "y": gpu.create_buffer((N_GROUPS * LOCAL,), np.float32),
        "alpha": 2.0,
    }
