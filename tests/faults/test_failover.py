"""Graceful degradation end to end: under injected faults the runtime must
finish with correct numerics on the surviving device, emit the resilience
trace events, and refuse cleanly when recovery is genuinely impossible."""

import numpy as np
import pytest

from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.faults import FaultKind, FaultSchedule, install_faults
from repro.hw.machine import build_machine
from repro.ocl.health import DeviceLostError
from repro.ocl.ndrange import NDRange

from tests.conftest import make_scale_kernel

N = 256
LOCAL = 16
ALPHA = 2.5


def run_scale(schedule=None, config=None, gpu_eff=0.5, cpu_eff=0.5, n=N,
              max_transfer_retries=None):
    """One scale-kernel run; returns (machine, runtime, y, expected)."""
    machine = build_machine(trace=True)
    runtime = FluidiCLRuntime(machine, config=config)
    if max_transfer_retries is not None:
        for device in runtime.platform.devices:
            device.health.max_transfer_retries = max_transfer_retries
    if schedule is not None:
        install_faults(runtime.platform, schedule)
    spec = make_scale_kernel(n, LOCAL, gpu_eff=gpu_eff, cpu_eff=cpu_eff,
                             work_scale=32.0)
    x = np.arange(n, dtype=np.float32)
    buf_x = runtime.create_buffer("x", (n,), np.float32)
    buf_y = runtime.create_buffer("y", (n,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    runtime.enqueue_nd_range_kernel(
        spec, NDRange(n, LOCAL), {"x": buf_x, "y": buf_y, "alpha": ALPHA}
    )
    y = np.zeros(n, dtype=np.float32)
    runtime.enqueue_read_buffer(buf_y, y)
    runtime.finish()
    runtime.drain()
    return machine, runtime, y, ALPHA * x


def first_kernel_midpoint(gpu_eff=0.5, cpu_eff=0.5) -> float:
    """Strike time inside the first kernel's GPU execution window."""
    _machine, runtime, _y, _exp = run_scale(gpu_eff=gpu_eff, cpu_eff=cpu_eff)
    begin, end = runtime.records[0].gpu_span
    assert end > begin
    return begin + 0.5 * (end - begin)


def events_named(machine, name):
    return [e for e in machine.tracer.events if e.name == name]


class TestGpuLossFailover:
    def test_cpu_completes_and_numerics_hold(self):
        strike = first_kernel_midpoint()
        machine, runtime, y, expected = run_scale(
            FaultSchedule.single(FaultKind.DEVICE_LOSS, at=strike,
                                 device="gpu"))
        np.testing.assert_array_equal(y, expected)
        record = runtime.records[0]
        assert record.path == "failover"
        assert record.gpu_groups == 0
        assert runtime.stats.extra["failovers"] == 1
        assert [r.path for r in runtime.records] == ["failover"]
        (event,) = events_named(machine, "failover")
        assert event.attrs["lost"] == runtime.gpu_device.name
        assert event.attrs["survivor"] == runtime.cpu_device.name

    def test_no_status_delivery_after_failover(self):
        """The board is finalized on failover; in-flight status callbacks
        on the dead device cancel instead of delivering (section 5.3)."""
        strike = first_kernel_midpoint()
        machine, _runtime, _y, _exp = run_scale(
            FaultSchedule.single(FaultKind.DEVICE_LOSS, at=strike,
                                 device="gpu"))
        from repro.obs.events import EventKind

        (failover,) = events_named(machine, "failover")
        late = [e for e in machine.tracer.by_kind(EventKind.STATUS)
                if e.ts >= failover.ts]
        assert late == []


class TestCpuLossFailover:
    def test_gpu_carries_kernel_alone(self):
        strike = first_kernel_midpoint()
        machine, runtime, y, expected = run_scale(
            FaultSchedule.single(FaultKind.DEVICE_LOSS, at=strike,
                                 device="cpu"))
        np.testing.assert_array_equal(y, expected)
        assert runtime.stats.extra["failovers"] == 1
        (event,) = events_named(machine, "failover")
        assert event.attrs["lost"] == runtime.cpu_device.name
        assert event.attrs["survivor"] == runtime.gpu_device.name


class TestTransientTransferFaults:
    def test_bounded_retry_preserves_numerics(self):
        machine, runtime, y, expected = run_scale(
            FaultSchedule.single(FaultKind.TRANSFER_FAULT, at=0.0,
                                 device="gpu", direction="h2d", count=2))
        np.testing.assert_array_equal(y, expected)
        assert runtime.gpu_device.health.transfer_retries == 2
        retries = events_named(machine, "transfer")
        assert len(retries) == 2
        # Both pending failures hit the first transfer to start, which
        # retried twice (attempt numbers are per transfer, not global).
        assert [e.attrs["attempt"] for e in retries] == [1, 2]
        assert not runtime.gpu_device.health.lost

    def test_retry_exhaustion_escalates_to_loss(self):
        machine, runtime, y, expected = run_scale(
            FaultSchedule.single(FaultKind.TRANSFER_FAULT, at=0.0,
                                 device="gpu", direction="h2d", count=5),
            max_transfer_retries=1)
        # The GPU is declared lost, the CPU finishes the kernel alone.
        np.testing.assert_array_equal(y, expected)
        assert runtime.gpu_device.health.lost
        assert "retries exhausted" in runtime.gpu_device.health.lost_reason
        assert runtime.stats.extra["failovers"] >= 1


class TestWatchdog:
    def test_stall_escalates_to_loss_and_failover(self):
        # GPU-dominant and large enough for many waves, so a wave boundary
        # observes the stall while the host is blocked on the kernel event.
        kw = dict(gpu_eff=0.9, cpu_eff=0.1, n=4096)
        _machine, ref_runtime, _y, _exp = run_scale(**kw)
        begin, end = ref_runtime.records[0].gpu_span
        strike = begin + 0.5 * (end - begin)
        timeout = 2.0 * (end - begin)
        machine, runtime, y, expected = run_scale(
            FaultSchedule.single(FaultKind.DEVICE_STALL, at=strike,
                                 device="gpu", duration=100.0 * timeout),
            config=FluidiCLConfig(watchdog_timeout=timeout), **kw)
        np.testing.assert_array_equal(y, expected)
        assert runtime.stats.extra["watchdog_trips"] == 1
        (degraded,) = events_named(machine, "device_degraded")
        assert degraded.attrs["device"] == runtime.gpu_device.name
        (failover,) = events_named(machine, "failover")
        assert failover.ts >= degraded.ts
        assert "watchdog" in runtime.gpu_device.health.lost_reason

    def test_transient_stall_is_ridden_out(self):
        """A stall shorter than the watchdog limit must not trip it."""
        strike = first_kernel_midpoint()
        machine, runtime, y, expected = run_scale(
            FaultSchedule.single(FaultKind.DEVICE_STALL, at=strike,
                                 device="gpu", duration=1e-5))
        np.testing.assert_array_equal(y, expected)
        assert runtime.stats.extra["watchdog_trips"] == 0
        assert events_named(machine, "failover") == []

    def test_tight_timeout_terminates(self):
        """Regression: a wakeup landing one float ULP before the idle
        deadline used to freeze the clock and re-arm forever."""
        from repro.polybench.suite import make_app

        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(
            machine, FluidiCLConfig(watchdog_timeout=1e-4))
        install_faults(runtime.platform, FaultSchedule.single(
            FaultKind.DEVICE_STALL, at=2.9e-4, device="gpu", duration=10.0))
        app = make_app("gesummv", "test")
        result = app.execute(runtime, check=True)
        runtime.drain()
        assert result.correct
        assert runtime.stats.extra["watchdog_trips"] == 1


class TestUnrecoverableWindow:
    def test_loss_holding_sole_copy_raises_cleanly(self):
        """A device lost while it holds the only copy of committed data is
        honestly unrecoverable: the read must raise, never hand back a
        zero-filled destination as if it were results."""
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine)
        spec = make_scale_kernel(N, LOCAL, gpu_eff=0.9, cpu_eff=0.1,
                                 work_scale=32.0)
        x = np.arange(N, dtype=np.float32)
        buf_x = runtime.create_buffer("x", (N,), np.float32)
        buf_y = runtime.create_buffer("y", (N,), np.float32)
        runtime.enqueue_write_buffer(buf_x, x)
        record = runtime.enqueue_nd_range_kernel(
            spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y, "alpha": ALPHA}
        )
        assert record.path in ("gpu-only", "merged")  # committed GPU-side
        # The GPU dies right after the commit, before the background
        # device-to-host read-back could deliver a CPU copy.
        runtime.gpu_device.health.declare_lost("post-commit loss")
        y = np.zeros(N, dtype=np.float32)
        with pytest.raises(DeviceLostError):
            runtime.enqueue_read_buffer(buf_y, y)

    def test_unrecoverable_kernel_error_names_devices(self):
        """The anchor dies while the next kernel's input is still riding
        its read-back to the CPU: no front can complete the range, and the
        error names both devices."""
        runtime = FluidiCLRuntime(build_machine())
        n = 4096
        spec = make_scale_kernel(n, LOCAL, gpu_eff=0.9, cpu_eff=0.1,
                                 work_scale=32.0)
        bufs = [runtime.create_buffer(name, (n,), np.float32)
                for name in ("x", "y", "z")]
        runtime.enqueue_write_buffer(bufs[0], np.ones(n, dtype=np.float32))
        record = runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, LOCAL), {"x": bufs[0], "y": bufs[1], "alpha": 2.0}
        )
        assert record.path in ("gpu-only", "merged")  # y committed GPU-side
        runtime.gpu_device.health.declare_lost("post-commit loss")
        with pytest.raises(DeviceLostError) as info:
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(n, LOCAL),
                {"x": bufs[1], "y": bufs[2], "alpha": 3.0},
            )
        message = str(info.value)
        assert "unrecoverable" in message
        assert repr(runtime.gpu_device.name) in message
        assert repr(runtime.cpu_device.name) in message

    def test_both_devices_lost_rejects_writes(self):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        runtime.gpu_device.health.declare_lost("gone")
        runtime.cpu_device.health.declare_lost("gone")
        buf = runtime.create_buffer("x", (8,), np.float32)
        with pytest.raises(DeviceLostError):
            runtime.enqueue_write_buffer(buf, np.ones(8, dtype=np.float32))
