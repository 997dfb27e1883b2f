"""Regression tests for CPU-scheduler edge cases.

Covers the §6.6 probe-chunk rounding, the ``version_used`` field on
early-exit paths, and the §5.3 finalize race in result/status shipping.
"""

from types import SimpleNamespace

import numpy as np

from repro.core.deviceset import FrontLedger
from repro.core.runtime import FluidiCLRuntime
from repro.core.scheduler import CpuScheduler
from repro.hw.machine import build_machine
from repro.ocl.executor import StatusBoard
from repro.ocl.ndrange import NDRange

from tests.conftest import make_scale_kernel

N = 4096
LOCAL = 16


def run_two_kernel_chain(gpu_eff, cpu_eff, versions=1, config=None):
    """x -> y -> z chain so kernel 2 depends on kernel 1's output."""
    machine = build_machine(trace=True)
    runtime = FluidiCLRuntime(machine, config=config)
    spec = make_scale_kernel(N, LOCAL, gpu_eff=gpu_eff, cpu_eff=cpu_eff,
                             work_scale=32.0)
    specs = [spec] + [
        spec.with_version(f"v{i}", spec.body) for i in range(1, versions)
    ]
    x = np.arange(N, dtype=np.float32)
    buf_x = runtime.create_buffer("x", (N,), np.float32)
    buf_y = runtime.create_buffer("y", (N,), np.float32)
    buf_z = runtime.create_buffer("z", (N,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    runtime.enqueue_nd_range_kernel(
        specs, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y, "alpha": 2.0}
    )
    runtime.enqueue_nd_range_kernel(
        specs, NDRange(N, LOCAL), {"x": buf_y, "y": buf_z, "alpha": 3.0}
    )
    z = np.zeros(N, dtype=np.float32)
    runtime.enqueue_read_buffer(buf_z, z)
    runtime.finish()
    runtime.drain()
    np.testing.assert_array_equal(z, 6.0 * x)
    return machine, runtime


class TestVersionUsed:
    def test_set_when_gpu_finishes_during_version_wait(self):
        """Kernel 2's scheduler waits for kernel 1's result to reach the
        CPU; a dominant GPU finishes kernel 2 before that happens and the
        scheduler exits early — ``version_used`` must still be set."""
        _machine, runtime = run_two_kernel_chain(gpu_eff=1.0, cpu_eff=0.02)
        for record in runtime.records:
            assert record.version_used is not None

    def test_set_on_balanced_runs_too(self):
        _machine, runtime = run_two_kernel_chain(gpu_eff=0.5, cpu_eff=0.5)
        for record in runtime.records:
            assert record.version_used is not None


class TestProbeChunkRounding:
    def test_probe_allocations_are_cu_multiples(self):
        """§6.6 probes must round up to a compute-unit multiple, or the
        partially filled last wave biases the per-group version timings."""
        from repro.core.config import FluidiCLConfig
        from repro.obs.events import EventKind

        machine, runtime = run_two_kernel_chain(
            gpu_eff=0.4, cpu_eff=0.6, versions=3,
            config=FluidiCLConfig(online_profiling=True),
        )

        cu = runtime.cpu_device.spec.compute_units
        probes = [
            e for e in machine.tracer.by_kind(EventKind.SUBKERNEL)
            if e.attrs.get("probing")
        ]
        assert probes, "expected probing subkernels with 3 versions"
        for event in probes:
            chunk = event.attrs["chunk"]
            fid_end = event.attrs["fid_end"]
            assert chunk % cu == 0 or chunk == fid_end, (
                f"probe chunk {chunk} not a multiple of {cu} CUs"
            )


class TestFinalizeRace:
    """``_send_results_and_status`` snapshots cost host memcpy time; the
    kernel can be finalized mid-snapshot.  Remaining buffer sends AND the
    status callback must then be skipped (§5.3).

    The fake scheduler is worker front 1, which has claimed the top half
    ``[4, 8)`` of an 8-group range off a real :class:`FrontLedger`.
    """

    FRONT = 1

    def _fake_scheduler(self, engine, fbuffers, board, tracer_events):
        sent, callbacks = [], []

        def trace(category, **payload):
            tracer_events.append((engine.now, category, payload))

        engine.trace = trace
        runtime = SimpleNamespace(
            engine=engine,
            machine=SimpleNamespace(
                host=SimpleNamespace(memcpy_bandwidth=1.0)
            ),
            hd_queue=SimpleNamespace(
                enqueue_write_buffer=lambda buf, data: sent.append(buf),
                enqueue_callback=lambda fn, **kw: callbacks.append(fn),
            ),
            gpu_device=SimpleNamespace(
                link=SimpleNamespace(transfer_time=lambda nbytes: 1e-6)
            ),
            stats=SimpleNamespace(extra={"status_messages": 0}),
        )
        ledger = FrontLedger(board.total_groups)
        ledger.claim(self.FRONT, 4)
        plan = SimpleNamespace(
            kernel_id=1,
            board=board,
            out_fbuffers=fbuffers,
            ledger=ledger,
        )
        fake = SimpleNamespace(
            runtime=runtime, plan=plan,
            front=SimpleNamespace(index=self.FRONT),
            landing={f.name: f.name for f in fbuffers},
        )
        return fake, sent, callbacks

    def _fbuf(self, name, nbytes=1.0):
        copy = SimpleNamespace(snapshot=lambda: np.zeros(1))
        return SimpleNamespace(name=name, nbytes=nbytes, copies=[None, copy])

    def test_finalize_mid_snapshot_stops_sends_and_status(self):
        from repro.sim.core import Engine

        engine = Engine()
        board = StatusBoard(engine, total_groups=8, kernel_id=1)
        fbuffers = [self._fbuf("a"), self._fbuf("b")]
        events = []
        fake, sent, callbacks = self._fake_scheduler(
            engine, fbuffers, board, events
        )

        # Each snapshot costs 1 simulated second; finalize lands during the
        # second one.
        engine.process(CpuScheduler._send_results_and_status(fake, 4))

        def finalizer():
            yield engine.timeout(1.5)
            board.finalize()

        engine.process(finalizer())
        engine.run()
        assert sent == ["a"], "send in flight at finalize must be the last"
        assert callbacks == [], "status callback must not be enqueued"
        assert fake.plan.ledger.committed_frontier() == 8, \
            "an unsent shipment must not land"
        assert not any(cat == "status_delivery" for _t, cat, _p in events)

    def test_without_finalize_all_sends_and_status_go_out(self):
        from repro.sim.core import Engine

        engine = Engine()
        board = StatusBoard(engine, total_groups=8, kernel_id=1)
        fbuffers = [self._fbuf("a"), self._fbuf("b")]
        events = []
        fake, sent, callbacks = self._fake_scheduler(
            engine, fbuffers, board, events
        )
        engine.process(CpuScheduler._send_results_and_status(fake, 4))
        engine.run()
        assert sent == ["a", "b"]
        assert len(callbacks) == 1
        assert fake.plan.ledger.committed_frontier() == 4
        # Driving the recorded callback delivers the status message.
        callbacks[0](None)
        assert board.frontier == 4
        assert any(cat == "status_delivery" for _t, cat, _p in events)

    def test_finalized_board_discards_late_status(self):
        from repro.sim.core import Engine

        engine = Engine()
        board = StatusBoard(engine, total_groups=8, kernel_id=1)
        fbuffers = [self._fbuf("a")]
        events = []
        fake, sent, callbacks = self._fake_scheduler(
            engine, fbuffers, board, events
        )
        engine.process(CpuScheduler._send_results_and_status(fake, 4))
        engine.run()
        (deliver,) = callbacks
        board.finalize()
        deliver(None)
        assert board.frontier == 8, "late status must not move the frontier"
        delivery = [p for _t, cat, p in events if cat == "status_delivery"]
        assert delivery and delivery[0]["accepted"] is False
