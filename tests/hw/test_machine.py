"""Unit tests for the Machine bundle."""

import pytest

from repro.hw.machine import build_machine
from repro.hw.specs import (
    HOST_DDR3,
    PCIE_GEN2_X16,
    TESLA_C2070,
    XEON_W3550,
    DeviceKind,
)


class TestBuildMachine:
    def test_default_devices_in_order(self, machine):
        kinds = [spec.kind for spec, _link in machine.devices]
        assert kinds == [DeviceKind.GPU, DeviceKind.CPU]

    def test_clock_starts_at_zero(self, machine):
        assert machine.now == 0.0

    def test_host_api_call_advances_clock(self, machine):
        before = machine.now
        machine.host_api_call()
        assert machine.now == pytest.approx(
            before + machine.host.api_call_overhead
        )

    def test_tracer_absent_by_default(self, machine):
        assert machine.tracer is None

    def test_tracer_present_when_requested(self, traced_machine):
        assert traced_machine.tracer is not None

    def test_run_until_event(self, machine):
        timeout = machine.engine.timeout(1.5, value="v")
        assert machine.run_until(timeout) == "v"
        assert machine.now == pytest.approx(1.5)

    def test_custom_specs(self):
        machine = build_machine(devices=[
            (TESLA_C2070.scaled(0.5), PCIE_GEN2_X16), (XEON_W3550, HOST_DDR3),
        ])
        gpu_spec = machine.devices[0][0]
        assert gpu_spec.peak_flops == pytest.approx(TESLA_C2070.peak_flops / 2)
        assert machine.devices[1][0] is XEON_W3550
