"""The injector applies each fault class to the right device at the right
simulated time, with trace events and its ``applied`` record to match."""

import pytest

from repro.core.runtime import FluidiCLRuntime
from repro.faults import FaultKind, FaultSchedule, FaultSpec, install_faults
from repro.hw.machine import build_machine
from repro.obs.events import EventKind


def make_runtime(trace: bool = True) -> FluidiCLRuntime:
    return FluidiCLRuntime(build_machine(trace=trace))


class TestInjection:
    def test_stall_freezes_target_device_for_duration(self):
        runtime = make_runtime()
        install_faults(runtime.platform, FaultSchedule.single(
            FaultKind.DEVICE_STALL, at=1.0, device="gpu", duration=0.5
        ))
        runtime.engine.run(until=1.0)
        assert runtime.gpu_device.health.stalled
        assert runtime.cpu_device.health.ok
        runtime.engine.run(until=1.6)
        assert runtime.gpu_device.health.ok

    def test_loss_is_permanent_and_reported(self):
        runtime = make_runtime()
        install_faults(runtime.platform, FaultSchedule.single(
            FaultKind.DEVICE_LOSS, at=0.25, device="cpu"
        ))
        runtime.engine.run(until=0.5)
        health = runtime.cpu_device.health
        assert health.lost
        assert not health.ok
        assert "injected" in health.lost_reason
        assert runtime.gpu_device.health.ok

    def test_transfer_faults_become_pending_failures(self):
        runtime = make_runtime()
        install_faults(runtime.platform, FaultSchedule.single(
            FaultKind.TRANSFER_FAULT, at=0.0, device="gpu",
            direction="d2h", count=3,
        ))
        runtime.engine.run(until=1e-9)
        health = runtime.gpu_device.health
        assert health.pending_transfer_faults("d2h") == 3
        assert health.pending_transfer_faults("h2d") == 0
        assert health.take_transfer_fault("d2h")
        assert health.pending_transfer_faults("d2h") == 2

    def test_transfer_fault_counts_when_it_strikes(self):
        """A transfer-fault spec is recorded (and traced) when its first
        armed failure fails a transfer, not when it is armed; armings in
        one direction are consumed oldest first."""
        runtime = make_runtime()
        injector = install_faults(runtime.platform, FaultSchedule([
            FaultSpec(kind=FaultKind.TRANSFER_FAULT, at=0.0, device="gpu",
                      direction="d2h", count=2),
            FaultSpec(kind=FaultKind.TRANSFER_FAULT, at=1e-6, device="gpu",
                      direction="d2h", count=1),
        ]))
        engine = runtime.engine
        engine.run(until=1e-3)
        health = runtime.gpu_device.health
        assert health.pending_transfer_faults("d2h") == 3
        assert injector.applied == []
        assert runtime.machine.tracer.by_kind(EventKind.FAULT) == []
        assert health.take_transfer_fault("d2h")
        engine.run(until=2e-3)
        assert [s.count for s in injector.applied] == [2]
        (event,) = runtime.machine.tracer.by_kind(EventKind.FAULT)
        assert event.ts == pytest.approx(1e-3)
        assert health.take_transfer_fault("d2h")
        engine.run(until=3e-3)
        assert len(injector.applied) == 1
        assert health.take_transfer_fault("d2h")
        engine.run(until=4e-3)
        assert [s.count for s in injector.applied] == [2, 1]
        assert health.pending_transfer_faults("d2h") == 0
        assert not health.take_transfer_fault("d2h")

    def test_link_degrade_scales_bandwidth(self):
        runtime = make_runtime()
        before = runtime.gpu_device.link.bandwidth
        install_faults(runtime.platform, FaultSchedule.single(
            FaultKind.LINK_DEGRADE, at=0.5, device="gpu", factor=0.25
        ))
        runtime.engine.run(until=1.0)
        after = runtime.gpu_device.link
        assert after.bandwidth == pytest.approx(before * 0.25)
        assert "degraded" in after.name

    def test_trace_events_and_counters(self):
        runtime = make_runtime()
        schedule = FaultSchedule([
            FaultSpec(kind=FaultKind.DEVICE_STALL, at=0.1, duration=0.1),
            FaultSpec(kind=FaultKind.DEVICE_LOSS, at=0.2, device="cpu"),
        ])
        injector = install_faults(runtime.platform, schedule)
        runtime.engine.run(until=0.5)
        # One record per fact: the injector's list, not a runtime counter.
        assert "faults_injected" not in runtime.stats.extra
        assert [s.kind for s in injector.applied] == [
            FaultKind.DEVICE_STALL, FaultKind.DEVICE_LOSS,
        ]
        events = runtime.machine.tracer.by_kind(EventKind.FAULT)
        assert [e.name for e in events] == ["device-stall", "device-loss"]
        assert events[0].ts == pytest.approx(0.1)
        assert events[1].attrs["device"] == "cpu"

    def test_double_install_rejected(self):
        runtime = make_runtime()
        injector = install_faults(
            runtime.platform,
            FaultSchedule.single(FaultKind.DEVICE_LOSS, at=1.0),
        )
        with pytest.raises(RuntimeError):
            injector.install()

    def test_no_schedule_is_inert(self):
        """An empty schedule must not even register a process."""
        runtime = make_runtime()
        injector = install_faults(runtime.platform, FaultSchedule([]))
        runtime.engine.run(until=1.0)
        assert injector.applied == []
        assert runtime.machine.tracer.by_kind(EventKind.FAULT) == []
