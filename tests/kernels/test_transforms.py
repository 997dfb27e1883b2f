"""Unit tests for kernel transformations (paper's source-to-source rewrites)."""

import pytest

from repro.kernels.transforms import (
    cpu_subkernel_variant,
    gpu_fluidic_variant,
    plain_variant,
)

from tests.conftest import make_scale_kernel


@pytest.fixture
def spec():
    return make_scale_kernel(64)


class TestPlain:
    def test_no_flags(self, spec):
        variant = plain_variant(spec)
        assert not variant.abort_checks
        assert variant.time_multiplier == 1.0


class TestGpuVariant:
    def test_all_opt(self, spec):
        variant = gpu_fluidic_variant(spec)
        assert variant.abort_checks
        assert variant.abort_in_loops
        assert variant.unrolled
        assert variant.time_multiplier < 1.1

    def test_no_unroll(self, spec):
        variant = gpu_fluidic_variant(spec, unroll=False)
        assert variant.abort_in_loops
        assert not variant.unrolled
        assert variant.time_multiplier == pytest.approx(
            spec.cost.no_unroll_penalty
        )

    def test_no_abort_in_loops(self, spec):
        variant = gpu_fluidic_variant(spec, abort_in_loops=False)
        assert variant.abort_checks
        assert not variant.abort_in_loops
        # no inner checks -> no unrolling issue -> no penalty
        assert variant.time_multiplier == 1.0
        assert variant.abort_granularity == 1

    def test_unroll_moot_without_inner_checks(self, spec):
        variant = gpu_fluidic_variant(spec, abort_in_loops=False, unroll=True)
        assert not variant.unrolled


class TestCpuVariant:
    def test_range_checked(self, spec):
        """The range check itself is the launch window
        (``LaunchConfig.fid_start``/``fid_end``); the variant carries the
        §6.3 split by default and no abort checks."""
        variant = cpu_subkernel_variant(spec)
        assert variant.wg_split
        assert not variant.abort_checks

    def test_wg_split_toggle(self, spec):
        variant = cpu_subkernel_variant(spec, wg_split=False)
        assert not variant.wg_split

    def test_no_time_penalty(self, spec):
        assert cpu_subkernel_variant(spec).time_multiplier == 1.0
