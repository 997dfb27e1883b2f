"""Unit tests for the kernel DSL."""

import numpy as np
import pytest

from repro.hw.cost import UNROLLED_CHECK_PENALTY, WorkGroupCost
from repro.kernels.dsl import (
    ArgSpec,
    Intent,
    KernelSpec,
    KernelVariant,
    WorkGroupContext,
    buffer_arg,
    scalar_arg,
)

from tests.conftest import make_scale_kernel


class TestIntent:
    def test_written(self):
        assert Intent.OUT.is_written
        assert Intent.INOUT.is_written
        assert not Intent.IN.is_written

    def test_read(self):
        assert Intent.IN.is_read
        assert Intent.INOUT.is_read
        assert not Intent.OUT.is_read


class TestArgSpec:
    def test_buffer_arg_defaults(self):
        spec = buffer_arg("x")
        assert spec.is_buffer
        assert spec.intent is Intent.IN

    def test_scalar_must_be_in(self):
        with pytest.raises(ValueError):
            ArgSpec("alpha", Intent.OUT, is_buffer=False)

    def test_scalar_arg_helper(self):
        spec = scalar_arg("alpha")
        assert not spec.is_buffer


class TestKernelSpec:
    def test_duplicate_args_rejected(self):
        cost = WorkGroupCost(flops=1, bytes_read=1, bytes_written=1)
        with pytest.raises(ValueError):
            KernelSpec("k", (buffer_arg("x"), buffer_arg("x")),
                       body=lambda ctx: None, cost=cost)

    def test_out_and_in_args(self):
        spec = KernelSpec(
            "k",
            (buffer_arg("a"), buffer_arg("b", Intent.OUT),
             buffer_arg("c", Intent.INOUT), scalar_arg("s")),
            body=lambda ctx: None,
            cost=WorkGroupCost(flops=1, bytes_read=1, bytes_written=1),
        )
        assert [a.name for a in spec.out_args] == ["b", "c"]
        assert [a.name for a in spec.in_args] == ["a", "c"]
        assert [a.name for a in spec.buffer_args] == ["a", "b", "c"]

    def test_arg_lookup(self):
        spec = make_scale_kernel(64)
        assert spec.arg("x").intent is Intent.IN
        with pytest.raises(KeyError):
            spec.arg("nope")

    def test_bind_check(self):
        spec = make_scale_kernel(64)
        spec.bind_check({"x": 1, "y": 2, "alpha": 3})
        with pytest.raises(TypeError):
            spec.bind_check({"x": 1})

    def test_with_version(self):
        spec = make_scale_kernel(64)
        alt = spec.with_version("tuned", spec.body)
        assert alt.version == "tuned"
        assert alt.name == spec.name
        assert alt.cost == spec.cost


class TestWorkGroupContext:
    def test_item_ranges(self):
        ctx = WorkGroupContext((2, 1), (4, 4), (16, 8), {})
        assert ctx.item_range(0) == (32, 48)
        assert ctx.item_range(1) == (8, 16)
        assert ctx.rows() == slice(32, 48)
        assert ctx.cols() == slice(8, 16)

    def test_arg_access(self):
        data = np.zeros(4)
        ctx = WorkGroupContext((0,), (1,), (4,), {"buf": data})
        assert ctx["buf"] is data


class TestKernelVariant:
    def test_plain_multiplier_is_one(self):
        variant = KernelVariant(make_scale_kernel(64))
        assert variant.time_multiplier == 1.0
        assert variant.abort_granularity == 1

    def test_inner_checks_with_unroll(self):
        variant = KernelVariant(make_scale_kernel(64), abort_checks=True,
                                abort_in_loops=True, unrolled=True)
        assert variant.time_multiplier == pytest.approx(UNROLLED_CHECK_PENALTY)

    def test_inner_checks_without_unroll(self):
        spec = make_scale_kernel(64)
        variant = KernelVariant(spec, abort_checks=True, abort_in_loops=True,
                                unrolled=False)
        assert variant.time_multiplier == pytest.approx(
            spec.cost.no_unroll_penalty
        )

    def test_granularity_follows_loop_iters(self):
        spec = make_scale_kernel(64, loop_iters=40)
        variant = KernelVariant(spec, abort_checks=True, abort_in_loops=True)
        assert variant.abort_granularity == 40


class TestDeclarationDiagnostics:
    """Declaration errors carry the analyzer's typed diagnostics
    (KernelDeclarationError subclasses ValueError, so legacy callers and
    the pytest.raises(ValueError) sites above keep working)."""

    def test_scalar_intent_error_names_the_argument(self):
        from repro.analysis import KernelDeclarationError

        with pytest.raises(KernelDeclarationError) as excinfo:
            ArgSpec("alpha", Intent.OUT, is_buffer=False)
        finding = excinfo.value.finding
        assert finding.rule_id == "FK002"
        assert finding.arg == "alpha"
        assert "alpha" in str(excinfo.value)
        assert "buffer_arg" in finding.hint

    def test_duplicate_args_error_names_kernel_and_argument(self):
        from repro.analysis import KernelDeclarationError

        with pytest.raises(KernelDeclarationError) as excinfo:
            KernelSpec(
                name="dup_kernel",
                args=(buffer_arg("x"), buffer_arg("x")),
                body=lambda ctx: None,
                cost=WorkGroupCost(flops=1, bytes_read=1, bytes_written=1),
            )
        finding = excinfo.value.finding
        assert finding.rule_id == "FK001"
        assert finding.kernel == "dup_kernel"
        assert finding.arg == "x"
        assert "dup_kernel" in str(excinfo.value)

    def test_non_identifier_name_rejected(self):
        from repro.analysis import KernelDeclarationError

        with pytest.raises(KernelDeclarationError) as excinfo:
            buffer_arg("not a name")
        assert excinfo.value.finding.rule_id == "FK003"

    def test_declaration_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            scalar_arg("x")  # fine
            ArgSpec("y", Intent.INOUT, is_buffer=False)
