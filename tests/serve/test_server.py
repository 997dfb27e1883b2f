"""Dispatcher, admission-control and pipeline tests for the serving core."""

import numpy as np
import pytest

from repro.core.runtime import FluidiCLRuntime
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.faults.injector import install_faults
from repro.hw.machine import build_machine
from repro.ocl.platform import Platform
from repro.serve.job import JobRejected
from repro.serve.profile import AppProfile
from repro.sim.core import SimError

from tests.serve.conftest import GPU, make_job, make_server


def drain(machine, server):
    server.close_intake()
    machine.engine.run()


class TestAdmission:
    def test_admit_then_complete(self, serve_machine, toy_profiles):
        server = make_server(serve_machine, toy_profiles)
        record = server.submit(make_job(0))
        drain(serve_machine, server)
        assert record.outcome == "done"
        assert record.latency > 0
        counts = server.stats.tenant_counts("tenant0")
        assert counts == {"submitted": 1, "admitted": 1, "shed": 0,
                          "completed": 1, "failed": 0}

    def test_shed_at_bounded_depth(self, serve_machine, toy_profiles):
        server = make_server(serve_machine, toy_profiles, max_queue_depth=2)
        server.submit(make_job(0))
        server.submit(make_job(1))
        with pytest.raises(JobRejected) as excinfo:
            server.submit(make_job(2))
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.record.outcome == "shed"
        drain(serve_machine, server)
        counts = server.stats.tenant_counts("tenant0")
        assert counts["submitted"] == 3
        assert counts["admitted"] + counts["shed"] == counts["submitted"]
        assert counts["completed"] == counts["admitted"] == 2

    def test_shed_jobs_have_no_done_event(self, serve_machine, toy_profiles):
        server = make_server(serve_machine, toy_profiles, max_queue_depth=1)
        server.submit(make_job(0))
        with pytest.raises(JobRejected) as excinfo:
            server.submit(make_job(1))
        assert excinfo.value.record.done_event is None
        drain(serve_machine, server)

    def test_submit_after_close_raises(self, serve_machine, toy_profiles):
        server = make_server(serve_machine, toy_profiles)
        server.close_intake()
        with pytest.raises(SimError):
            server.submit(make_job(0))

    def test_unprofiled_app_rejected_eagerly(self, serve_machine,
                                             toy_profiles):
        server = make_server(serve_machine, toy_profiles)
        with pytest.raises(KeyError):
            server.submit(make_job(0, app="mystery"))


class TestDispatchOrder:
    def test_per_tenant_fifo(self, serve_machine, toy_profiles):
        """One tenant's jobs start strictly in admission order."""
        server = make_server(serve_machine, toy_profiles, max_inflight=1)
        for i in range(6):
            server.submit(make_job(i))
        drain(serve_machine, server)
        started = [e for e in serve_machine.tracer.events
                   if e.category == "job_started"]
        assert [e["job_id"] for e in started] == list(range(6))

    def test_weighted_fair_share_under_backlog(self, serve_machine,
                                               toy_profiles):
        """With weights 3:1 and both tenants backlogged, the heavy tenant
        gets ~3 of every 4 dispatches."""
        server = make_server(serve_machine, toy_profiles, max_inflight=1,
                            weights={"heavy": 3.0, "light": 1.0})
        for i in range(8):
            server.submit(make_job(i, tenant="heavy"))
            server.submit(make_job(100 + i, tenant="light"))
        drain(serve_machine, server)
        started = [e for e in serve_machine.tracer.events
                   if e.category == "job_started"]
        first_eight = [e["tenant"] for e in started[:8]]
        assert first_eight.count("heavy") == 6
        assert first_eight.count("light") == 2

    def test_equal_weights_alternate(self, serve_machine, toy_profiles):
        server = make_server(serve_machine, toy_profiles, max_inflight=1)
        for i in range(4):
            server.submit(make_job(2 * i, tenant="a"))
            server.submit(make_job(2 * i + 1, tenant="b"))
        drain(serve_machine, server)
        started = [e["tenant"] for e in serve_machine.tracer.events
                   if e.category == "job_started"]
        assert started == ["a", "b"] * 4

    def test_inflight_respects_cap(self, serve_machine, toy_profiles):
        server = make_server(serve_machine, toy_profiles, max_inflight=2)
        peak = []
        serve_machine.tracer.add_listener(
            lambda e: peak.append(e["inflight"])
            if e.category == "job_started" else None)
        for i in range(10):
            server.submit(make_job(i))
        drain(serve_machine, server)
        assert max(peak) <= 2


class TestPipeline:
    def test_jobs_overlap_up_to_inflight(self, serve_machine, toy_profiles):
        """Two inflight slots finish 10 jobs faster than one: host + DMA
        stages overlap even though compute serializes on the fronts."""
        server = make_server(serve_machine, toy_profiles, max_inflight=4)
        for i in range(10):
            server.submit(make_job(i))
        drain(serve_machine, server)
        four_lane = serve_machine.engine.now

        from repro.hw.machine import build_machine
        solo_machine = build_machine(trace=True)
        solo = make_server(solo_machine, toy_profiles, max_inflight=1)
        for i in range(10):
            solo.submit(make_job(i))
        drain(solo_machine, solo)
        assert four_lane < solo_machine.engine.now

    def test_compute_serializes_per_front(self, serve_machine, toy_profiles):
        """Total busy compute on the anchor device equals jobs × duration:
        the front never ran two cooperative computes at once."""
        server = make_server(serve_machine, toy_profiles, max_inflight=4)
        for i in range(5):
            server.submit(make_job(i))
        drain(serve_machine, server)
        gpu = server.platform.device_by_name(GPU)
        profile = toy_profiles[("toy", 64)]
        expected = 5 * profile.compute_seconds  # scale 1.0: all alive
        assert gpu.stats["busy_compute_time"] == pytest.approx(expected)

    def test_device_loss_rescales_survivors(self, serve_machine,
                                            toy_profiles):
        """After the GPU front dies, jobs run on the CPU's 25% share:
        compute takes 4x longer but jobs still complete."""
        server = make_server(serve_machine, toy_profiles)
        gpu = server.platform.device_by_name(GPU)
        gpu.health.declare_lost("test")
        record = server.submit(make_job(0))
        drain(serve_machine, server)
        assert record.outcome == "done"
        profile = toy_profiles[("toy", 64)]
        assert record.latency >= profile.compute_seconds / 0.25

    def test_all_devices_lost_fails_jobs(self, serve_machine, toy_profiles):
        server = make_server(serve_machine, toy_profiles)
        for device in server.platform.devices:
            device.health.declare_lost("test")
        record = server.submit(make_job(0))
        drain(serve_machine, server)
        assert record.outcome == "failed"
        assert server.stats.tenant_counts("tenant0")["failed"] == 1

    def test_transfer_fault_retries_then_completes(self, serve_machine,
                                                   toy_profiles):
        server = make_server(serve_machine, toy_profiles)
        gpu = server.platform.device_by_name(GPU)
        gpu.health.inject_transfer_faults("h2d", count=2)
        record = server.submit(make_job(0))
        drain(serve_machine, server)
        assert record.outcome == "done"
        assert gpu.health.transfer_retries == 2

    def test_injector_composes_against_server(self, serve_machine,
                                              toy_profiles):
        """The injector drives the server's platform like a runtime's."""
        schedule = FaultSchedule.single(
            FaultKind.DEVICE_STALL, at=1e-5, device="gpu", duration=5e-4)
        server = make_server(serve_machine, toy_profiles)
        injector = install_faults(server.platform, schedule)
        record = server.submit(make_job(0))
        drain(serve_machine, server)
        assert record.outcome == "done"
        assert [spec.kind for spec in injector.applied] == [
            FaultKind.DEVICE_STALL]
        # the stall parked the compute stage: latency includes the freeze
        assert record.latency > 5e-4


#: bytes of the one H2D transfer the transfer-path tests compare
NBYTES = 1 << 20


def h2d_only_server(machine):
    """A server whose one job is a bare GPU H2D stage: no host stage, no
    compute time, no D2H, so the job's latency is that stage's time."""
    profile = AppProfile(
        app="toy", size=64, machine="default", elapsed_seconds=0.0,
        compute_seconds=0.0, host_seconds=0.0,
        h2d_bytes={GPU: NBYTES}, d2h_bytes={}, fractions={GPU: 1.0})
    return make_server(machine, {("toy", 64): profile})


def runtime_write_seconds(h2d_faults: int) -> tuple:
    """Simulated seconds and transfer retries of one NBYTES write command
    to the GPU with ``h2d_faults`` injected transfer failures pending."""
    machine = build_machine()
    platform = Platform(machine)
    gpu = platform.devices[0]
    if h2d_faults:
        gpu.health.inject_transfer_faults("h2d", h2d_faults)
    context = platform.create_context()
    buffer = context.create_buffer(gpu, (NBYTES // 4,), np.float32)
    event = context.create_queue(gpu).enqueue_write_buffer(
        buffer, np.zeros(NBYTES // 4, np.float32))
    machine.engine.run()
    return event.finished - event.started, gpu.health.transfer_retries


class TestOneTransferPath:
    """A serve DMA stage and a runtime transfer are one routine
    (``Device.transfer``), so the same faults cost them the same."""

    @pytest.mark.parametrize("h2d_faults", [0, 2, 5])
    def test_serve_h2d_stage_costs_what_a_runtime_write_costs(
            self, h2d_faults):
        """2 faults retry within the budget of 4; 5 exhaust it, and the
        loss ends both transfers at the same instant."""
        seconds, retries = runtime_write_seconds(h2d_faults)
        machine = build_machine()
        server = h2d_only_server(machine)
        gpu = server.platform.device_by_name(GPU)
        if h2d_faults:
            gpu.health.inject_transfer_faults("h2d", h2d_faults)
        record = server.submit(make_job(0))
        drain(machine, server)
        assert record.latency == seconds
        assert gpu.health.transfer_retries == retries
        assert gpu.health.lost == (h2d_faults > 4)

    def test_serve_dma_stage_waits_out_a_stall(self):
        machine = build_machine()
        server = h2d_only_server(machine)
        gpu = server.platform.device_by_name(GPU)
        gpu.health.stall(5e-4)
        record = server.submit(make_job(0))
        drain(machine, server)
        assert record.outcome == "done"
        assert record.latency == pytest.approx(
            5e-4 + gpu.transfer_time(NBYTES), rel=1e-12)


class TestValidation:
    def test_bad_limits_rejected(self, serve_machine, toy_profiles):
        with pytest.raises(ValueError):
            make_server(serve_machine, toy_profiles, max_queue_depth=0)
        with pytest.raises(ValueError):
            make_server(serve_machine, toy_profiles, max_inflight=0)


class TestInjectorShorthands:
    """"gpu" is device 0, the anchor; "cpu" is the runtime's CPU-path
    device, the last CPU-kind device or else the last device (big.little
    has no CPU-kind device)."""

    @pytest.mark.parametrize("preset, gpu, cpu", [
        ("default", GPU, "Xeon W3550"),
        ("big.little", "Tesla C2070 big", "Tesla C2070 little"),
    ], ids=["default", "big.little"])
    def test_gpu_cpu_shorthands(self, toy_profiles, preset, gpu, cpu):
        machine = build_machine(preset=preset)
        server = make_server(machine, toy_profiles)
        install_faults(server.platform, FaultSchedule([
            FaultSpec(FaultKind.DEVICE_LOSS, at=0.0, device="gpu"),
            FaultSpec(FaultKind.DEVICE_STALL, at=0.0, device="cpu",
                      duration=1.0),
        ]))
        machine.engine.run(until=1e-6)
        devices = server.platform.devices
        assert [d.name for d in devices if d.health.lost] == [gpu]
        assert [d.name for d in devices if d.health.stalled] == [cpu]
        runtime = FluidiCLRuntime(build_machine(preset=preset))
        assert (runtime.gpu_device.name, runtime.cpu_device.name) \
            == (gpu, cpu)
