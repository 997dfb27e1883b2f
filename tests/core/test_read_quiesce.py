"""Writer-quiesce coverage on host reads (both read paths).

A host read must wait for in-flight writes to whichever copy serves it.
The CPU-copy path always quiesced; the anchor/GPU path historically did
not — safe only by accident, because the blocking commit usually drained
the anchor's writers first.  These tests pin the fixed contract: the
read path quiesces the copy it reads, and every writer to the anchor
copy (host writes and merge kernels alike) is recorded so the quiesce
has something to wait on.

One recorded writer per copy is enough because every writer of copy
``i`` — host writes, pre-launch refreshes, §5.6 read-back deliveries,
subkernels and merges — is enqueued on that copy's one in-order queue:
``fluidicl-app`` for the anchor, ``fluidicl-w<i>`` for a worker front.
``TestOneWriterPerCopy`` checks that rule on every enqueue.
"""

import numpy as np
import pytest

from repro.core.buffers import FluidiBuffer
from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.faults import FaultKind, FaultSchedule
from repro.harness.runner import first_kernel_strike_time, measure_app
from repro.hw.machine import build_machine
from repro.ocl.enums import CommandType
from repro.ocl.ndrange import NDRange
from repro.ocl.queue import CommandQueue
from repro.polybench.suite import EXTENDED_SUITE, make_app

from tests.conftest import make_scale_kernel

N = 1024
LOCAL = 16
ALPHA = 2.0


def run_kernel(runtime, gpu_eff, cpu_eff, n=N):
    spec = make_scale_kernel(n, LOCAL, gpu_eff=gpu_eff, cpu_eff=cpu_eff,
                             work_scale=32.0)
    x = np.arange(n, dtype=np.float32)
    buf_x = runtime.create_buffer("x", (n,), np.float32)
    buf_y = runtime.create_buffer("y", (n,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    record = runtime.enqueue_nd_range_kernel(
        spec, NDRange(n, LOCAL), {"x": buf_x, "y": buf_y, "alpha": ALPHA}
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
        assert record.path in ("gpu-only", "merged")
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
        assert fbuf.last_write[0] is not None
        runtime.finish()
        runtime.drain()

    def test_merge_is_recorded_as_anchor_kernel_writer(self):
        """The diff+merge writes the anchor copy; a quiescing reader must
        see it as an in-flight kernel write, like any subkernel.  The GPU
        is slowed enough that the CPU's results land before the anchor
        ends, and the 128 groups take the Tesla two waves, so the CPU's
        window lies above the one wave the anchor runs and is merged."""
        runtime = FluidiCLRuntime(build_machine())
        buf_y, record, expected = run_kernel(runtime, gpu_eff=0.3,
                                             cpu_eff=0.5, n=2 * N)
        assert record.path == "merged"
        assert (buf_y.last_write[0].command_type
                is CommandType.ND_RANGE_KERNEL)
        y = np.zeros(2 * N, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_y, y)
        runtime.finish()
        runtime.drain()
        np.testing.assert_allclose(y, expected, rtol=1e-6)


@pytest.fixture
def writes(monkeypatch):
    """Every ``record_write`` call as (index, command type), each checked
    to be the command most recently enqueued on its copy's queue."""
    queue_of = {}
    last = {}
    recorded = []
    enqueue = CommandQueue.enqueue
    record_write = FluidiBuffer.record_write

    def spy_enqueue(queue, command):
        event = enqueue(queue, command)
        queue_of[event] = queue
        last[queue] = event
        return event

    def spy_record_write(fbuf, index, event):
        queue = queue_of.get(event)
        expected = "fluidicl-app" if index == 0 else f"fluidicl-w{index}"
        assert queue is not None and queue.name == expected, (
            f"{fbuf.name}@{index}: writer enqueued on "
            f"{getattr(queue, 'name', None)!r}, not {expected!r}")
        assert last[queue] is event, (
            f"{fbuf.name}@{index}: a later command was enqueued on "
            f"{expected!r} before the write was recorded")
        recorded.append((index, event.command_type))
        record_write(fbuf, index, event)

    monkeypatch.setattr(CommandQueue, "enqueue", spy_enqueue)
    monkeypatch.setattr(FluidiBuffer, "record_write", spy_record_write)
    return recorded


class TestOneWriterPerCopy:
    def test_every_writer_is_last_on_its_copys_queue(self, writes):
        """Every suite app on every preset."""
        for preset in ("default", "big.little", "cpu+2gpu", "cpu+3gpu"):
            for name in EXTENDED_SUITE:
                measure_app(make_app(name, "test"), machine=preset,
                            trace=True)
        kinds = set(writes)
        # host writes and subkernels on worker copies, host writes and
        # merges on the anchor: the rule was checked on every kind of writer
        assert (0, CommandType.WRITE_BUFFER) in kinds
        assert (0, CommandType.ND_RANGE_KERNEL) in kinds
        assert (1, CommandType.WRITE_BUFFER) in kinds
        assert (1, CommandType.ND_RANGE_KERNEL) in kinds

    @pytest.mark.parametrize("app,device", [("bicg", "gpu"), ("syr2k", "cpu")])
    def test_writers_stay_on_their_queues_through_a_loss(self, writes, app,
                                                          device):
        """One anchor loss and one worker loss, struck at the midpoint of
        the first kernel's GPU span (the ``ext_faults`` rule)."""
        base = measure_app(make_app(app, "test"))
        writes.clear()
        run = measure_app(
            make_app(app, "test"), trace=True,
            faults=FaultSchedule.single(FaultKind.DEVICE_LOSS,
                                        at=first_kernel_strike_time(base),
                                        device=device))
        assert run.runtime.stats.extra["failovers"] >= 1
        assert writes
