"""Writer-quiesce coverage on host reads (both read paths).

A host read must wait for in-flight writes to whichever copy serves it.
The CPU-copy path always quiesced; the anchor/GPU path historically did
not — safe only by accident, because the blocking commit usually drained
the anchor's writers first.  These tests pin the fixed contract: the
read path quiesces the copy it reads, and every writer to the anchor
copy (host writes and merge kernels alike) is recorded so the quiesce
has something to wait on.
"""

import numpy as np

from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.ocl.ndrange import NDRange

from tests.conftest import make_scale_kernel

N = 1024
LOCAL = 16
ALPHA = 2.0


def run_kernel(runtime, gpu_eff, cpu_eff):
    spec = make_scale_kernel(N, LOCAL, gpu_eff=gpu_eff, cpu_eff=cpu_eff,
                             work_scale=32.0)
    x = np.arange(N, dtype=np.float32)
    buf_x = runtime.create_buffer("x", (N,), np.float32)
    buf_y = runtime.create_buffer("y", (N,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    record = runtime.enqueue_nd_range_kernel(
        spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y, "alpha": ALPHA}
    )
    return buf_y, record, ALPHA * x


def record_quiesces(runtime):
    calls = []
    original = runtime._quiesce_copy

    def spy(handle, index):
        calls.append((handle.name, index))
        return original(handle, index)

    runtime._quiesce_copy = spy
    return calls


class TestAnchorReadPathQuiesces:
    def test_gpu_served_read_quiesces_the_anchor_copy(self):
        """GPU-dominant run: only the anchor copy is current, so the read
        is served from device 0 — and must quiesce device 0."""
        runtime = FluidiCLRuntime(build_machine())
        calls = record_quiesces(runtime)
        buf_y, record, expected = run_kernel(runtime, gpu_eff=0.9,
                                             cpu_eff=0.05)
        assert not record.cpu_completed_all
        y = np.zeros(N, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_y, y)
        runtime.finish()
        runtime.drain()
        np.testing.assert_allclose(y, expected, rtol=1e-6)
        assert ("y", 0) in calls

    def test_no_location_tracking_still_quiesces_the_serving_copy(self):
        runtime = FluidiCLRuntime(
            build_machine(), FluidiCLConfig(location_tracking=False))
        calls = record_quiesces(runtime)
        buf_y, _record, expected = run_kernel(runtime, gpu_eff=0.5,
                                              cpu_eff=0.5)
        y = np.zeros(N, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_y, y)
        runtime.finish()
        runtime.drain()
        np.testing.assert_allclose(y, expected, rtol=1e-6)
        served = [index for name, index in calls if name == "y"]
        assert served, "the host read must quiesce the copy it serves"


class TestAnchorWritersAreRecorded:
    def test_host_write_is_recorded_on_the_anchor_copy(self):
        runtime = FluidiCLRuntime(build_machine())
        fbuf = runtime.create_buffer("x", (N,), np.float32)
        runtime.enqueue_write_buffer(fbuf, np.ones(N, dtype=np.float32))
        assert fbuf.last_writes[0] is not None
        runtime.finish()
        runtime.drain()

    def test_merge_is_recorded_as_anchor_kernel_writer(self):
        """The diff+merge writes the anchor copy; a quiescing reader must
        see it as an in-flight kernel write, like any subkernel.  The GPU
        is slowed enough that the CPU's results land before the anchor
        ends, so the kernel merges."""
        runtime = FluidiCLRuntime(build_machine())
        buf_y, record, expected = run_kernel(runtime, gpu_eff=0.3,
                                             cpu_eff=0.5)
        assert record.merged
        assert buf_y.last_kernel_writes[0] is not None
        y = np.zeros(N, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_y, y)
        runtime.finish()
        runtime.drain()
        np.testing.assert_allclose(y, expected, rtol=1e-6)
