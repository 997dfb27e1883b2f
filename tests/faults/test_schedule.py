"""Unit tests for the deterministic fault schedule (repro.faults)."""

import pytest

from repro.faults import FaultKind, FaultSchedule, FaultSpec


class TestFaultSpecValidation:
    def test_kind_coerced_from_string(self):
        spec = FaultSpec(kind="device-loss", at=1.0)
        assert spec.kind is FaultKind.DEVICE_LOSS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor-strike", at=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.DEVICE_LOSS, at=-1e-9)

    def test_empty_device_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.DEVICE_LOSS, at=0.0, device="")

    def test_unknown_device_rejected_at_install(self):
        """Device *names* are only resolvable against a machine, so an
        unknown target fails when the schedule is installed."""
        from repro.core.runtime import FluidiCLRuntime
        from repro.faults import FaultSchedule, install_faults
        from repro.hw.machine import build_machine

        runtime = FluidiCLRuntime(build_machine())
        schedule = FaultSchedule(
            [FaultSpec(kind=FaultKind.DEVICE_LOSS, at=0.0, device="tpu")])
        with pytest.raises(ValueError, match="unknown device"):
            install_faults(runtime.platform, schedule)

    def test_stall_needs_positive_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.DEVICE_STALL, at=0.0, duration=0.0)

    def test_transfer_direction_checked(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.TRANSFER_FAULT, at=0.0, direction="d2d")

    def test_transfer_count_checked(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.TRANSFER_FAULT, at=0.0, count=0)

    def test_degrade_factor_range(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at=0.0, factor=0.0)
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at=0.0, factor=1.5)

    def test_describe_carries_kind_specific_fields(self):
        stall = FaultSpec(kind=FaultKind.DEVICE_STALL, at=0.5, duration=2.0)
        assert stall.describe()["duration"] == 2.0
        transfer = FaultSpec(kind=FaultKind.TRANSFER_FAULT, at=0.5,
                             direction="d2h", count=3)
        described = transfer.describe()
        assert described["direction"] == "d2h"
        assert described["count"] == 3


class TestFaultSchedule:
    def test_specs_sorted_by_time(self):
        schedule = FaultSchedule([
            FaultSpec(kind=FaultKind.DEVICE_LOSS, at=2.0),
            FaultSpec(kind=FaultKind.DEVICE_STALL, at=0.5, duration=1.0),
        ])
        assert [s.at for s in schedule] == [0.5, 2.0]

    def test_add_keeps_order(self):
        schedule = FaultSchedule.single(FaultKind.DEVICE_LOSS, at=2.0)
        schedule.add(FaultSpec(kind=FaultKind.DEVICE_STALL, at=1.0,
                               duration=1.0))
        assert [s.at for s in schedule] == [1.0, 2.0]
        assert len(schedule) == 2

    def test_single_builds_one_spec(self):
        schedule = FaultSchedule.single(
            FaultKind.TRANSFER_FAULT, at=1.0, direction="h2d", count=2
        )
        (spec,) = list(schedule)
        assert spec.kind is FaultKind.TRANSFER_FAULT
        assert spec.count == 2


class TestSeededSchedules:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.seeded(seed=7, window=(0.0, 1.0), n=5)
        b = FaultSchedule.seeded(seed=7, window=(0.0, 1.0), n=5)
        assert list(a) == list(b)

    def test_different_seed_differs(self):
        a = FaultSchedule.seeded(seed=7, window=(0.0, 1.0), n=5)
        b = FaultSchedule.seeded(seed=8, window=(0.0, 1.0), n=5)
        assert list(a) != list(b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            FaultSchedule.seeded(seed=3, window=(0.0, 1.0), n=-2)
        assert list(FaultSchedule.seeded(seed=3, window=(0.0, 1.0), n=0)) == []

    def test_times_inside_window(self):
        schedule = FaultSchedule.seeded(seed=3, window=(0.25, 0.75), n=10)
        assert all(0.25 <= s.at <= 0.75 for s in schedule)

    def test_kind_filter_respected(self):
        schedule = FaultSchedule.seeded(
            seed=3, window=(0.0, 1.0), n=10,
            kinds=(FaultKind.DEVICE_STALL,),
        )
        assert all(s.kind is FaultKind.DEVICE_STALL for s in schedule)
