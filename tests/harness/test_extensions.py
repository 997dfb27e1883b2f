"""Structural tests of the extension experiments (small/test scale)."""

import numpy as np
import pytest

from repro.harness.extensions import (
    EXTENSION_EXPERIMENTS,
    ablation_buffer_pool,
    ablation_location_tracking,
    ablation_wg_split,
    extended_overall,
    what_if_xeon_phi,
)
from repro.harness.experiments import run_experiment
from repro.harness.workloads import MatrixScaleApp


class TestWorkloads:
    def test_matscale_correct_on_fluidicl(self):
        from repro.core.runtime import FluidiCLRuntime
        from repro.hw.machine import build_machine

        app = MatrixScaleApp(n=128)
        machine = build_machine()
        result = app.execute(FluidiCLRuntime(machine))
        assert result.correct

    def test_matscale_correct_on_single_device(self):
        from repro.hw.machine import build_machine
        from repro.hw.specs import DeviceKind
        from repro.ocl.runtime import SingleDeviceRuntime

        app = MatrixScaleApp(n=128)
        machine = build_machine()
        result = app.execute(SingleDeviceRuntime(machine, DeviceKind.CPU))
        assert result.correct

    def test_matscale_size_validation(self):
        with pytest.raises(ValueError):
            MatrixScaleApp(n=100)


class TestExtensionExperiments:
    def test_registry(self):
        assert set(EXTENSION_EXPERIMENTS) == {
            "ext_pool", "ext_wgsplit", "ext_location", "ext_suite",
            "ext_phi", "ext_load", "ext_machines", "ext_faults",
        }

    def test_run_experiment_dispatches_extensions(self):
        result = run_experiment("ext_location")
        assert result.experiment_id == "ext_location"

    def test_pool_ablation_small_scale(self):
        result = ablation_buffer_pool("test")
        assert len(result.rows) == 6
        assert all(row[1] >= 0.99 for row in result.rows)

    def test_wg_split_ablation_shows_effect(self):
        result = ablation_wg_split(sizes=((1024, 256),))
        assert result.rows[0][1] == 4  # groups
        assert result.rows[0][2] > 1.1

    def test_location_ablation_counts_traffic(self):
        result = ablation_location_tracking(n=256)
        rows = {row[0]: row for row in result.rows}
        assert rows["tracking_off"][2] >= rows["tracking_on"][2]

    def test_extended_overall_small(self):
        result = extended_overall("test")
        assert [row[0] for row in result.rows] == [
            "atax", "mvt", "gemm", "3mm", "spmv", "histogram", "bfs", "scan",
        ]

    def test_fault_table_requires_bitwise_equal_outputs(self, monkeypatch):
        """A faulted run one ulp off the fault-free GPU run, well inside
        the NumPy reference's tolerance, raises instead of giving a row."""
        from repro.harness import extensions

        real = extensions.measure_app

        def nudged(app, *args, faults=None, **kwargs):
            run = real(app, *args, faults=faults, **kwargs)
            if faults is not None:
                for out in run.result.outputs.values():
                    flat = out.reshape(-1)
                    flat[0] = np.nextafter(flat[0], np.inf)
            return run

        monkeypatch.setattr(extensions, "measure_app", nudged)
        with pytest.raises(AssertionError, match="single-device GPU run"):
            extensions.fault_resilience(benchmarks=("syrk",))

    def test_every_transfer_fault_row_retries(self):
        """syrk moves nothing host-to-device after the strike; the
        transfer-fault row must still exercise the retry path."""
        from repro.harness import extensions

        result = extensions.fault_resilience(benchmarks=("syrk",))
        rows = {row[1]: row for row in result.rows}
        assert rows["transfer-fault"][result.headers.index("retries")] > 0

    def test_fault_table_rejects_a_transfer_fault_that_never_fires(
            self, monkeypatch):
        """A transfer-fault run in which no transfer retried raises."""
        from repro.faults import FaultKind
        from repro.harness import extensions

        real = extensions.measure_app

        def disarmed(app, *args, faults=None, **kwargs):
            if faults is not None and any(
                    spec.kind is FaultKind.TRANSFER_FAULT for spec in faults):
                faults = None
            return real(app, *args, faults=faults, **kwargs)

        monkeypatch.setattr(extensions, "measure_app", disarmed)
        with pytest.raises(AssertionError, match="no transfer retried"):
            extensions.fault_resilience(benchmarks=("gesummv",))

    def test_phi_what_if_runs_and_is_correct(self):
        result = what_if_xeon_phi(scale="test", benchmarks=("syrk",))
        assert len(result.rows) == 1
        assert all(value > 0 for value in result.rows[0][1:])


class TestXeonPhiPreset:
    def test_preset_shape(self):
        from repro.hw.specs import XEON_PHI_5110P, DeviceKind

        assert XEON_PHI_5110P.kind is DeviceKind.CPU
        assert XEON_PHI_5110P.compute_units == 240
        assert XEON_PHI_5110P.peak_flops > 1e12
