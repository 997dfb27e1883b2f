"""Structural tests of the experiment harness at test scale.

These verify each experiment runs end to end, produces the right columns
and reproduces the *qualitative* claim at tiny problem sizes; the real
numbers come from the benchmark harness at paper scale.
"""

import pytest

from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    fig15_optimizations,
    fig16_socl,
    fig17_chunk_sensitivity,
    fig18_step_sensitivity,
    fig13_overall,
    fig2_split_sweep,
    fig3_syrk_input_sizes,
    run_experiment,
    table1_bicg_kernel_times,
    table2_suite,
    table3_corr_online_profiling,
)
from repro.harness.runner import (
    first_kernel_strike_time,
    fluidicl_time,
    measure_app,
    single_device_times,
    socl_time,
)
from repro.hw.machine import MACHINE_PRESETS
from repro.hw.specs import (
    HOST_DDR3,
    PCIE_GEN2_X16,
    TESLA_C2070,
    XEON_W3550,
    DeviceKind,
)
from repro.polybench import make_app


class TestRunnerHelpers:
    def test_measure_app_validates(self):
        from repro.core.runtime import FluidiCLRuntime

        app = make_app("syrk", "test")
        result = measure_app(app, FluidiCLRuntime).result
        assert result.correct
        assert result.elapsed > 0

    def test_preset_and_device_list_match_a_hand_built_run(self):
        from repro.core.runtime import FluidiCLRuntime
        from repro.hw.machine import build_machine

        app = make_app("gesummv", "test")
        inputs = app.fresh_inputs()
        by_preset = measure_app(app, machine="cpu+2gpu", inputs=inputs)
        by_list = measure_app(app, machine=list(MACHINE_PRESETS["cpu+2gpu"]),
                              inputs=inputs)
        hand_built = app.execute(
            FluidiCLRuntime(build_machine(preset="cpu+2gpu")), inputs=inputs)
        assert by_preset.result.elapsed == by_list.result.elapsed
        assert by_preset.result.elapsed == hand_built.elapsed
        assert len(by_preset.machine.devices) == 3

    def test_faults_mid_kernel_gpu_loss_fails_over(self):
        from repro.faults import FaultKind, FaultSchedule

        app = make_app("gesummv", "test")
        inputs = app.fresh_inputs()
        strike = first_kernel_strike_time(measure_app(app, inputs=inputs))
        run = measure_app(app, inputs=inputs, faults=FaultSchedule.single(
            FaultKind.DEVICE_LOSS, at=strike, device="gpu"))
        assert run.result.correct
        assert run.runtime.stats.extra["failovers"] >= 1

    def test_trace_leaves_a_recorder_on_the_machine(self):
        app = make_app("gesummv", "test")
        assert measure_app(app).machine.tracer is None
        traced = measure_app(app, trace=True)
        assert traced.machine.tracer is not None
        assert traced.machine.tracer.events

    def test_single_device_times_on_a_device_list(self):
        from repro.hw.machine import build_machine
        from repro.ocl.runtime import SingleDeviceRuntime

        app = make_app("gesummv", "test")
        inputs = app.fresh_inputs()
        devices = [(TESLA_C2070.scaled(0.5), PCIE_GEN2_X16),
                   (XEON_W3550, HOST_DDR3)]
        times = single_device_times(app, inputs=inputs, machine=devices)
        for label, kind in (("gpu", DeviceKind.GPU), ("cpu", DeviceKind.CPU)):
            runtime = SingleDeviceRuntime(build_machine(devices=devices), kind)
            assert times[label] == app.execute(runtime, inputs=inputs).elapsed
        assert times["gpu"] > single_device_times(app, inputs=inputs)["gpu"]

    def test_single_device_times(self):
        app = make_app("gesummv", "test")
        times = single_device_times(app)
        assert set(times) == {"cpu", "gpu"}
        assert all(t > 0 for t in times.values())

    def test_fluidicl_time_positive(self):
        assert fluidicl_time(make_app("syrk", "test")) > 0

    def test_socl_time_eager(self):
        assert socl_time(make_app("syrk", "test"), "eager") > 0

    def test_socl_time_dmda_calibrates(self):
        assert socl_time(make_app("syrk", "test"), "dmda",
                         calibration_runs=2) > 0


class TestExperimentStructure:
    def test_registry_covers_all_paper_artifacts(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig2", "fig3", "table1", "table2", "fig13", "fig14",
            "fig15", "fig16", "table3", "fig17", "fig18",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_table2_structure(self):
        result = table2_suite("test")
        assert result.headers[0] == "benchmark"
        assert len(result.rows) == 6

    def test_table1_reproduces_split_preference(self):
        result = table1_bicg_kernel_times("test")
        winners = {row[3] for row in result.rows}
        assert winners == {"cpu", "gpu"}

    def test_fig2_structure(self):
        result = fig2_split_sweep("test")
        assert len(result.rows) == 11
        assert result.headers == ["gpu_share", "2mm", "syrk"]

    def test_fig3_structure(self):
        result = fig3_syrk_input_sizes(small_n=128, large_n=256)
        assert len(result.rows) == 11

    def test_fig13_structure_without_oracle(self):
        result = fig13_overall("test", include_oracle=False)
        assert result.headers == ["benchmark", "cpu", "gpu", "fluidicl"]
        assert len(result.rows) == 6
        assert all(row[3] > 0 for row in result.rows)

    def test_fig15_all_opt_normalized_to_one(self):
        result = fig15_optimizations("test")
        assert all(row[3] == 1.0 for row in result.rows)

    def test_fig16_structure(self):
        result = fig16_socl("test", calibration_runs=2)
        assert "socl_dmda" in result.headers
        assert len(result.rows) == 6

    def test_table3_has_four_configs(self):
        result = table3_corr_online_profiling("test")
        assert [row[0] for row in result.rows] == [
            "gpu_only", "cpu_only", "fluidicl", "fluidicl+profiling",
        ]

    def test_fig17_structure(self):
        result = fig17_chunk_sensitivity(
            "test", fractions=(0.1, 0.5), benchmarks=("syrk",)
        )
        assert result.headers == ["benchmark", "10%", "50%"]

    def test_fig18_structure(self):
        result = fig18_step_sensitivity(
            "test", steps=(0.0, 0.1), benchmarks=("syrk",)
        )
        assert result.headers == ["benchmark", "0%", "10%"]
