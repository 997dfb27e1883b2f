"""Front loss under the unified handler: any surviving front completes.

The device-set refactor folded the two asymmetric failover paths (GPU
lost -> CPU drains, CPU lost -> GPU carries on) into one front-loss
handler.  The first class is the pre-fix regression: killing the CPU
mid-run used to mis-commit the landed windows on several apps because
the "CPU finished everything" commit fired for a front that was already
lost.  The second class runs the same protocol on a three-device set and
kills each member in turn — whichever front dies, the survivors must
finish the range with correct numerics.
"""

import numpy as np
import pytest

from repro.core.runtime import FluidiCLRuntime
from repro.faults import FaultKind, FaultSchedule, FaultSpec, install_faults
from repro.harness.runner import measure_app
from repro.hw.machine import MACHINE_PRESETS, build_machine
from repro.hw.specs import DeviceKind
from repro.obs import EventKind
from repro.ocl.runtime import SingleDeviceRuntime
from repro.polybench.suite import EXTENDED_SUITE, make_app

def midrun_strike(app_name, preset=None):
    """A strike time inside the first kernel of a clean reference run."""
    machine = build_machine(preset=preset) if preset else build_machine()
    runtime = FluidiCLRuntime(machine)
    app = make_app(app_name, "test")
    app.execute(runtime, check=False)
    runtime.drain()
    record = runtime.records[0]
    assert record.end_time > record.start_time
    return record.start_time + 0.5 * (record.end_time - record.start_time)


def assert_failovers_name(machine, lost, survivors):
    """Every failover event names the lost device and a surviving one."""
    failovers = [e for e in machine.tracer.events if e.name == "failover"]
    assert failovers, "front loss must emit a failover trace event"
    for event in failovers:
        assert event["lost"] == lost
        assert event["survivor"] in survivors


def run_app_with_loss(app_name, device, preset=None, at=None):
    if at is None:
        at = midrun_strike(app_name, preset=preset)
    machine = (build_machine(preset=preset, trace=True) if preset
               else build_machine(trace=True))
    runtime = FluidiCLRuntime(machine)
    install_faults(runtime.platform, FaultSchedule.single(
        FaultKind.DEVICE_LOSS, at=at, device=device))
    app = make_app(app_name, "test")
    result = app.execute(runtime, check=True)
    runtime.drain()
    return machine, runtime, result


class TestCpuLossRegression:
    """Pre-fix failure: the sole-contributor commit must never credit a
    lost front's landing copy (the data lives on the live anchor)."""

    @pytest.mark.parametrize("app_name", EXTENDED_SUITE)
    def test_killing_cpu_midrun_stays_correct(self, app_name):
        machine, runtime, result = run_app_with_loss(app_name, "cpu")
        assert result.correct, (
            f"{app_name}: wrong numerics after CPU loss "
            f"(max rel err {result.max_relative_error:.3e})")
        assert runtime.cpu_device.health.lost
        assert_failovers_name(machine, lost=runtime.cpu_device.name,
                              survivors={runtime.gpu_device.name})

    @pytest.mark.parametrize("app_name", EXTENDED_SUITE)
    def test_killing_gpu_midrun_stays_correct(self, app_name):
        machine, runtime, result = run_app_with_loss(app_name, "gpu")
        assert result.correct, (
            f"{app_name}: wrong numerics after GPU loss "
            f"(max rel err {result.max_relative_error:.3e})")
        assert runtime.gpu_device.health.lost
        assert_failovers_name(machine, lost=runtime.gpu_device.name,
                              survivors={runtime.cpu_device.name})


class TestNDeviceFrontLoss:
    """cpu+2gpu: kill each member by name; the other two finish."""

    NAMES = ("Tesla C2070", "Tesla C2070 #2", "Xeon W3550")

    @pytest.mark.parametrize("victim", NAMES)
    def test_survivors_complete_the_range(self, victim):
        machine, runtime, result = run_app_with_loss(
            "gesummv", victim, preset="cpu+2gpu")
        assert result.correct, (
            f"wrong numerics after losing {victim} "
            f"(max rel err {result.max_relative_error:.3e})")
        lost = [f.name for f in runtime.device_set.fronts if f.lost]
        assert lost == [victim]
        assert len(runtime.device_set.survivors()) == 2
        assert_failovers_name(machine, lost=victim,
                              survivors=set(self.NAMES) - {victim})

    def test_idle_front_reruns_the_lost_window(self):
        """Tesla C2070 #2 dies under its only window of gesummv (small).
        The CPU runs out of claims and re-runs that window, so the anchor
        aborts instead of computing every group itself (40.75 ms)."""
        victim, cpu = "Tesla C2070 #2", "Xeon W3550"
        app = make_app("gesummv", "small", seed=1)
        inputs = app.fresh_inputs()
        gpu = measure_app(app, lambda m: SingleDeviceRuntime(m, DeviceKind.GPU),
                          machine="cpu+2gpu", inputs=inputs, check=False)
        loss = FaultSchedule.single(FaultKind.DEVICE_LOSS, at=5e-3,
                                    device=victim)
        run = measure_app(app, machine="cpu+2gpu", inputs=inputs,
                          faults=loss, trace=True, check=False)

        launches = run.machine.tracer.by_kind(EventKind.SUBKERNEL)
        # its one window was launched before the loss and never finished
        (lost,) = [e for e in launches if e["device"] == victim]
        assert lost.ts < 5e-3
        assert run.runtime.device_set.front_by_name(victim).lost
        lo, hi = lost["fid_start"], lost["fid_end"]
        assert any(e["device"] == cpu and e["redo"]
                   and e["fid_start"] <= lo and hi <= e["fid_end"]
                   for e in launches), "no re-run covers the lost window"
        for key, want in gpu.result.outputs.items():
            assert run.result.outputs[key].tobytes() == want.tobytes(), key
        assert run.result.elapsed < 20e-3

    def test_losing_every_worker_leaves_anchor_alone(self):
        """Both non-anchor fronts die; the anchor carries the kernels."""
        machine = build_machine(preset="cpu+2gpu", trace=True)
        runtime = FluidiCLRuntime(machine)
        strike = midrun_strike("gesummv", preset="cpu+2gpu")
        install_faults(runtime.platform, FaultSchedule([
            FaultSpec(FaultKind.DEVICE_LOSS, at=strike,
                      device="Tesla C2070 #2"),
            FaultSpec(FaultKind.DEVICE_LOSS, at=strike * 1.2,
                      device="Xeon W3550"),
        ]))
        app = make_app("gesummv", "test")
        result = app.execute(runtime, check=True)
        runtime.drain()
        assert result.correct
        assert [f.name for f in runtime.device_set.survivors()] \
            == ["Tesla C2070"]


class TestIrregularFrontLoss:
    """cpu+2gpu kill matrix over the irregular apps.

    Stronger than the rtol checks above: SpMV and scan do all their
    float32 reductions privately per work-group, so whichever front dies,
    the merged survivor result must match the pure-NumPy float32 kernel
    mimic **bit for bit** — a wrong merge of even one landed window shows
    up as a byte diff, not as a tolerance-sized blur.
    """

    NAMES = ("Tesla C2070", "Tesla C2070 #2", "Xeon W3550")

    @pytest.mark.parametrize("victim", NAMES)
    @pytest.mark.parametrize("app_name", ("spmv", "scan"))
    def test_survivors_merge_bitwise(self, app_name, victim):
        at = midrun_strike(app_name, preset="cpu+2gpu")
        machine = build_machine(preset="cpu+2gpu", trace=True)
        runtime = FluidiCLRuntime(machine)
        install_faults(runtime.platform, FaultSchedule.single(
            FaultKind.DEVICE_LOSS, at=at, device=victim))
        app = make_app(app_name, "test")
        inputs = app.fresh_inputs()
        outputs = app.host_program(runtime, inputs)
        runtime.finish()
        runtime.drain()
        lost = [f.name for f in runtime.device_set.fronts if f.lost]
        assert lost == [victim]
        assert len(runtime.device_set.survivors()) == 2
        for key, want in app.exact_reference(inputs).items():
            assert outputs[key].tobytes() == want.tobytes(), (
                f"{app_name}: output {key!r} not bit-identical after "
                f"losing {victim}")


class TestPerDeviceReadCounters:
    def test_reads_are_attributed_to_the_serving_device(self):
        machine = build_machine(preset="cpu+2gpu")
        runtime = FluidiCLRuntime(machine)
        app = make_app("gesummv", "test")
        result = app.execute(runtime, check=True)
        runtime.drain()
        assert result.correct
        extra = runtime.stats.extra
        keys = {f"reads_from[{d.name}]" for d in runtime.platform.devices}
        # read counters exist per device only, and count every read once
        assert {k for k in extra if k.startswith("reads_from")} == keys
        assert runtime.stats.reads > 0
        assert sum(extra[k] for k in keys) == runtime.stats.reads

    @pytest.mark.parametrize("preset", sorted(MACHINE_PRESETS))
    def test_read_events_name_the_serving_device(self, preset):
        machine = build_machine(preset=preset, trace=True)
        runtime = FluidiCLRuntime(machine)
        app = make_app("gesummv", "test")
        assert app.execute(runtime, check=True).correct
        runtime.drain()
        names = [d.name for d in runtime.platform.devices]
        sources = [e["source"] for e in machine.tracer.by_kind(
            EventKind.BUFFER_READ)]
        assert len(sources) == runtime.stats.reads > 0
        assert set(sources) <= set(names)
        for name in names:
            assert (sources.count(name)
                    == runtime.stats.extra[f"reads_from[{name}]"])

    def test_read_from_a_worker_gpu_names_it(self):
        """A worker GPU holding the only current copy serves the read; it
        is named as itself, not confused with the anchor GPU."""
        machine = build_machine(preset="cpu+2gpu", trace=True)
        runtime = FluidiCLRuntime(machine)
        data = np.arange(16, dtype=np.float32)
        buf = runtime.create_buffer("b", (16,), np.float32)
        runtime.enqueue_write_buffer(buf, data)
        # the worker GPU alone holds the committed version
        buf.expect_write(buf.latest + 1)
        buf.commit_front(1, buf.latest + 1)
        out = np.zeros(16, dtype=np.float32)
        runtime.enqueue_read_buffer(buf, out)
        np.testing.assert_array_equal(out, data)
        (read,) = machine.tracer.by_kind(EventKind.BUFFER_READ)
        assert read["source"] == "Tesla C2070 #2"
        assert runtime.stats.extra["reads_from[Tesla C2070 #2]"] == 1
