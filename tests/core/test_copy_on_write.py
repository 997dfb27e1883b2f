"""Copy-on-write device copies behind the host API, and host-array checks.

A host write is frozen once at the call; every device copy aliases that
snapshot until a kernel writes it.  Both runtimes take the host data at
the call and check host array sizes before anything is enqueued.
"""

import numpy as np
import pytest

from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.hw.specs import DeviceKind
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import SingleDeviceRuntime

from tests.conftest import make_accumulate_kernel, make_scale_kernel

N, LOCAL = 256, 16


def fluidicl(**config):
    return FluidiCLRuntime(build_machine(preset="cpu+2gpu"),
                           config=FluidiCLConfig(**config))


def single_gpu():
    return SingleDeviceRuntime(build_machine(), DeviceKind.GPU)


RUNTIMES = pytest.mark.parametrize("make_runtime", [fluidicl, single_gpu],
                                   ids=["fluidicl", "single"])


def device_copies(handle):
    return getattr(handle, "copies", [handle])


class TestAliasing:
    def test_host_write_aliases_one_frozen_snapshot(self):
        runtime = fluidicl()
        x = np.arange(N, dtype=np.float32)
        handle = runtime.create_buffer("x", (N,), np.float32)
        runtime.enqueue_write_buffer(handle, x)
        runtime.drain()
        snapshot = handle.copies[0].view
        assert len(handle.copies) == 3
        assert not snapshot.flags.writeable
        for copy in handle.copies:
            assert copy.view is snapshot
            assert not np.shares_memory(copy.view, x)

    @pytest.mark.parametrize("spec", [
        make_scale_kernel(N, LOCAL, gpu_eff=0.05, work_scale=32.0),
        make_accumulate_kernel(N, LOCAL),
    ], ids=["out", "inout"])
    def test_cooperative_kernel_leaves_snapshots_intact(self, spec):
        runtime = fluidicl()
        x = np.arange(N, dtype=np.float32)
        handles = {name: runtime.create_buffer(name, (N,), np.float32)
                   for name in ("x", "y")}
        for handle in handles.values():
            runtime.enqueue_write_buffer(handle, x)
        runtime.drain()
        snapshots = {name: h.copies[0].view for name, h in handles.items()}
        args = dict(handles)
        if "alpha" in {a.name for a in spec.args}:
            args["alpha"] = 2.0
        record = runtime.enqueue_nd_range_kernel(spec, NDRange(N, LOCAL),
                                                 args)
        y = np.empty(N, dtype=np.float32)
        runtime.enqueue_read_buffer(handles["y"], y)
        runtime.drain()
        # A front's groups are credited when its subkernel ends, which may
        # be after the blocking kernel call returned.
        assert sum(record.front_groups.values()) > 0, "workers must write"
        assert np.array_equal(y, 2.0 * x)
        for snapshot in snapshots.values():
            assert snapshot.tobytes() == x.tobytes()
        # the declared-``in`` input was read in place on every device
        for copy in handles["x"].copies:
            assert copy.view is snapshots["x"]

    def test_writing_an_in_argument_raises_and_changes_nothing(self):
        runtime = fluidicl(lint="off")
        base = make_scale_kernel(N, LOCAL)

        def body(ctx):
            rows = ctx.rows()
            ctx["x"][rows] = 2.0 * ctx["x"][rows]
            ctx["y"][rows] = ctx["x"][rows]

        spec = base.with_version("writes-x", body)
        x = np.arange(N, dtype=np.float32)
        handle_x = runtime.create_buffer("x", (N,), np.float32)
        handle_y = runtime.create_buffer("y", (N,), np.float32)
        runtime.enqueue_write_buffer(handle_x, x)
        with pytest.raises(ValueError, match="read-only"):
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(N, LOCAL),
                {"x": handle_x, "y": handle_y, "alpha": 1.0})
        assert np.array_equal(x, np.arange(N))
        for copy in handle_x.copies:
            assert np.array_equal(copy.view, np.arange(N))


@RUNTIMES
class TestHostArrays:
    def test_write_takes_the_data_at_the_call(self, make_runtime):
        runtime = make_runtime()
        x = np.arange(N, dtype=np.float32)
        handle = runtime.create_buffer("x", (N,), np.float32)
        runtime.enqueue_write_buffer(handle, x)
        x[:] = -7
        runtime.finish()
        out = np.empty(N, dtype=np.float32)
        runtime.enqueue_read_buffer(handle, out)
        runtime.finish()
        assert np.array_equal(out, np.arange(N))
        for copy in device_copies(handle):
            assert np.array_equal(copy.view, np.arange(N))

    def test_never_written_buffer_reads_as_zeros(self, make_runtime):
        runtime = make_runtime()
        handle = runtime.create_buffer("x", (N,), np.float32)
        out = np.ones(N, dtype=np.float32)
        runtime.enqueue_read_buffer(handle, out)
        runtime.finish()
        assert np.all(out == 0)

    def test_wrong_size_write_raises_at_the_call(self, make_runtime):
        runtime = make_runtime()
        handle = runtime.create_buffer("m", (4, 4), np.float32)
        with pytest.raises(ValueError, match="does not fit"):
            runtime.enqueue_write_buffer(handle, np.ones(8, np.float32))
        runtime.finish()
        assert runtime.stats.writes == 0
        assert getattr(handle, "latest", 0) == 0
        out = np.ones((4, 4), dtype=np.float32)
        runtime.enqueue_read_buffer(handle, out)
        runtime.finish()
        assert np.all(out == 0)

    def test_wrong_size_read_raises_at_the_call(self, make_runtime):
        runtime = make_runtime()
        handle = runtime.create_buffer("m", (4, 4), np.float32)
        before = runtime.now
        with pytest.raises(ValueError, match="does not fit"):
            runtime.enqueue_read_buffer(handle, np.empty(8, np.float32))
        assert runtime.now == before
        assert runtime.stats.reads == 0

    def test_read_into_non_contiguous_host_array(self, make_runtime):
        runtime = make_runtime()
        handle = runtime.create_buffer("v", (16,), np.float32)
        runtime.enqueue_write_buffer(handle, np.arange(16, dtype=np.float32))
        out = np.zeros((4, 4), dtype=np.float32).T
        runtime.enqueue_read_buffer(handle, out)
        runtime.finish()
        assert np.array_equal(out, np.arange(16).reshape(4, 4))
