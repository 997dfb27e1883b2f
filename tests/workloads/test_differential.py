"""Differential-oracle layer for the irregular-workload suite.

Every irregular app is designed so that partitioning cannot change the
numerics: all floating-point reductions happen privately inside one
work-group, in a fixed order.  That turns the usual rtol comparison into
a much stronger oracle — cooperative N-device runs, single-device runs
and a pure-NumPy float32 mimic of the kernels (``exact_reference``) must
agree **bit for bit**, with the CoherenceMonitor watching every run.
The float64 ``reference`` additionally bounds the float32 arithmetic.
"""

import numpy as np
import pytest

from repro.check.monitor import CoherenceMonitor
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.hw.specs import DeviceKind
from repro.ocl.runtime import SingleDeviceRuntime
from repro.polybench.suite import EXTENDED_SUITE, make_app

IRREGULAR = ("spmv", "histogram", "bfs", "scan")
DENSE = tuple(name for name in EXTENDED_SUITE if name not in IRREGULAR)
PIPELINES = ("2mm", "3mm", "bfs", "scan")
PRESETS = ("default", "cpu+2gpu", "cpu+3gpu")


def run_cooperative(app_name, preset):
    """One monitored cooperative run; returns (outputs, inputs, monitor)."""
    machine = build_machine(preset=preset, trace=True)
    runtime = FluidiCLRuntime(machine)
    monitor = CoherenceMonitor().attach(machine.tracer)
    app = make_app(app_name, "test")
    inputs = app.fresh_inputs()
    outputs = app.host_program(runtime, inputs)
    runtime.finish()
    runtime.drain()
    monitor.final_check(aborted=False)
    return outputs, inputs, monitor


def run_single(app_name, kind):
    machine = build_machine()
    runtime = SingleDeviceRuntime(machine, kind)
    app = make_app(app_name, "test")
    inputs = app.fresh_inputs()
    outputs = app.host_program(runtime, inputs)
    runtime.finish()
    return outputs, inputs


def assert_bitwise(outputs, expected, context):
    assert set(outputs) == set(expected), context
    for key, want in expected.items():
        got = outputs[key]
        assert got.dtype == want.dtype, f"{context}: dtype drift on {key!r}"
        assert got.tobytes() == want.tobytes(), (
            f"{context}: output {key!r} is not bit-identical "
            f"(max abs diff {np.max(np.abs(got.astype(np.float64) - want.astype(np.float64)))})"
        )


class TestCooperativeVsNumpy:
    """Cooperative runs on every preset == the float32 NumPy kernel mimic."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("app_name", IRREGULAR)
    def test_bitwise_and_invariant_clean(self, app_name, preset):
        outputs, inputs, monitor = run_cooperative(app_name, preset)
        assert not monitor.violations, "\n".join(
            str(v) for v in monitor.violations)
        assert monitor.checks > 0
        app = make_app(app_name, "test")
        assert_bitwise(outputs, app.exact_reference(inputs),
                       f"{app_name} cooperative on {preset}")


class TestSingleDeviceVsNumpy:
    """Both vendor-runtime baselines == the float32 NumPy kernel mimic."""

    @pytest.mark.parametrize("kind", (DeviceKind.GPU, DeviceKind.CPU))
    @pytest.mark.parametrize("app_name", IRREGULAR)
    def test_bitwise(self, app_name, kind):
        outputs, inputs = run_single(app_name, kind)
        app = make_app(app_name, "test")
        assert_bitwise(outputs, app.exact_reference(inputs),
                       f"{app_name} on single {kind}")


class TestFloat64Oracle:
    """The float32 pipeline stays within rtol of the float64 reference."""

    @pytest.mark.parametrize("app_name", IRREGULAR)
    def test_cooperative_within_tolerance(self, app_name):
        app = make_app(app_name, "test")
        runtime = FluidiCLRuntime(build_machine(preset="cpu+2gpu"))
        result = app.execute(runtime, check=True)
        runtime.drain()
        assert result.correct, (
            f"{app_name}: max rel err {result.max_relative_error:.3e}")


class TestPipelineAppsCooperativeVsSingle:
    """Every PipelineApp: cooperative == single-device, bit for bit.

    2mm/3mm have no order-independent float32 mimic (their tiles reduce
    across the full inner dimension), but per-work-group computation is
    deterministic — so the cooperative result must equal the GPU-only
    baseline exactly, on every preset.
    """

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("app_name", PIPELINES)
    def test_bitwise_vs_gpu_baseline(self, app_name, preset):
        coop, _inputs, monitor = run_cooperative(app_name, preset)
        assert not monitor.violations
        single, _ = run_single(app_name, DeviceKind.GPU)
        assert_bitwise(coop, single,
                       f"{app_name} cooperative {preset} vs gpu-only")


class TestDenseAppsCooperativeVsSingle:
    """Every dense app: cooperative == single-device GPU, bit for bit.

    Span-safe kernels (``KernelSpec.span_safe``) run a different number of
    work-groups per NumPy call on each front.  At test scale the workers
    rarely win any groups, so the row-local matvec apps also run at small
    scale, where every preset but ``big.little`` splits their range.
    """

    @pytest.mark.parametrize("app_name, scale", [
        *((name, "test") for name in DENSE),
        *((name, "small") for name in ("bicg", "gesummv", "atax", "mvt")),
    ])
    def test_bitwise_vs_gpu_baseline_on_every_preset(self, app_name, scale):
        app = make_app(app_name, scale)
        runtime = SingleDeviceRuntime(build_machine(), DeviceKind.GPU)
        single = app.host_program(runtime, app.fresh_inputs())
        runtime.finish()
        worker_groups = 0
        for preset in PRESETS + ("big.little",):
            runtime = FluidiCLRuntime(build_machine(preset=preset))
            outputs = app.host_program(runtime, app.fresh_inputs())
            runtime.drain()
            worker_groups += sum(r.cpu_groups for r in runtime.records)
            assert_bitwise(outputs, single,
                           f"{app_name} cooperative {preset} vs gpu-only")
        if scale == "small":
            assert worker_groups > 0
