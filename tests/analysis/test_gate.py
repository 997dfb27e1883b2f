"""The runtime lint gate: off / warn / strict, and the corruption it stops.

The end-to-end scenario is the paper's §4.1 failure mode made concrete: a
buffer the body writes but the signature declares ``in`` never enters
``out_args``, so FluidiCL neither merges the CPU partition's results nor
commits the GPU's — the host reads back data that is wrong wherever the
other device computed.  The strict gate refuses to launch such a kernel at
all; warn mode launches it but emits a typed ``lint_finding`` event.
"""

import numpy as np
import pytest

from repro.analysis import LintError
from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.hw.cost import WorkGroupCost
from repro.hw.machine import build_machine
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.obs.events import EventKind
from repro.ocl.ndrange import NDRange

N, LOCAL = 256, 16


def _mis_declared_scale_kernel(declared=Intent.IN):
    """``y = 2x`` whose output intent is under-declared by default."""

    def body(ctx):
        rows = ctx.rows()
        ctx["y"][rows] = 2.0 * ctx["x"][rows]

    cost = WorkGroupCost(
        flops=LOCAL * 32.0,
        bytes_read=LOCAL * 4 * 64.0 * 32,
        bytes_written=LOCAL * 4 * 64.0 * 32,
        loop_iters=32,
        compute_efficiency={"cpu": 0.5, "gpu": 0.5},
        memory_efficiency={"cpu": 0.5, "gpu": 0.5},
    )
    return KernelSpec(
        name="mis_declared_scale",
        args=(buffer_arg("x"), buffer_arg("y", declared)),
        body=body,
        cost=cost,
    )


def _run(spec, lint, trace=False):
    machine = build_machine(trace=trace)
    runtime = FluidiCLRuntime(machine, config=FluidiCLConfig(lint=lint))
    rng = np.random.default_rng(11)
    x = rng.standard_normal(N).astype(np.float32)
    buf_x = runtime.create_buffer("x", (N,), np.float32)
    buf_y = runtime.create_buffer("y", (N,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    runtime.enqueue_nd_range_kernel(
        spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y})
    y = np.zeros(N, dtype=np.float32)
    runtime.enqueue_read_buffer(buf_y, y)
    runtime.finish()
    return runtime, machine, x, y


class TestStrictGate:
    def test_strict_refuses_unsafe_kernel_before_launch(self):
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine,
                                  config=FluidiCLConfig(lint="strict"))
        spec = _mis_declared_scale_kernel()
        buf_x = runtime.create_buffer("x", (N,), np.float32)
        buf_y = runtime.create_buffer("y", (N,), np.float32)
        with pytest.raises(LintError) as excinfo:
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y})
        assert "FK101" in str(excinfo.value)
        # refused *before* launch: no kernel record, no kernel event
        assert runtime.records == []
        assert not [e for e in machine.tracer.events
                    if e.kind is EventKind.KERNEL]

    def test_strict_passes_clean_kernel(self):
        spec = _mis_declared_scale_kernel(declared=Intent.OUT)
        _, _, x, y = _run(spec, lint="strict")
        np.testing.assert_allclose(y, 2.0 * x, rtol=1e-6)

    def test_lint_error_carries_reports(self):
        machine = build_machine()
        runtime = FluidiCLRuntime(machine,
                                  config=FluidiCLConfig(lint="strict"))
        spec = _mis_declared_scale_kernel()
        buf_x = runtime.create_buffer("x", (N,), np.float32)
        buf_y = runtime.create_buffer("y", (N,), np.float32)
        with pytest.raises(LintError) as excinfo:
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y})
        reports = excinfo.value.reports
        assert any(not r.fluidic_safe for r in reports)


class TestWarnGate:
    def test_warn_emits_event_and_launches(self):
        spec = _mis_declared_scale_kernel()
        runtime, machine, _, _ = _run(spec, lint="warn", trace=True)
        lint_events = [e for e in machine.tracer.events
                       if e.kind is EventKind.LINT]
        assert len(lint_events) == 1
        event = lint_events[0]
        assert event["rule"] == "FK101"
        assert event["kernel"] == "mis_declared_scale"
        assert event["severity"] == "error"
        assert runtime.stats.extra["lint_findings"] == 1
        # the kernel still ran
        assert len(runtime.records) == 1

    def test_warn_deduplicates_per_runtime(self):
        spec = _mis_declared_scale_kernel()
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine, config=FluidiCLConfig(lint="warn"))
        buf_x = runtime.create_buffer("x", (N,), np.float32)
        buf_y = runtime.create_buffer("y", (N,), np.float32)
        for _ in range(3):
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y})
        runtime.finish()
        lint_events = [e for e in machine.tracer.events
                       if e.kind is EventKind.LINT]
        assert len(lint_events) == 1

    def test_warn_is_silent_on_clean_kernels(self):
        spec = _mis_declared_scale_kernel(declared=Intent.OUT)
        _, machine, _, _ = _run(spec, lint="warn", trace=True)
        assert not [e for e in machine.tracer.events
                    if e.kind is EventKind.LINT]


class TestOffGate:
    def test_off_skips_analysis(self):
        spec = _mis_declared_scale_kernel()
        runtime, machine, _, _ = _run(spec, lint="off", trace=True)
        assert not [e for e in machine.tracer.events
                    if e.kind is EventKind.LINT]
        assert runtime.stats.extra["lint_findings"] == 0

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FluidiCLConfig(lint="loud")


class TestEndToEndCorruption:
    """The failure the linter prevents, demonstrated for real."""

    def test_under_declared_out_corrupts_cooperative_result(self):
        # control: correctly declared, same config → correct result
        good = _mis_declared_scale_kernel(declared=Intent.OUT)
        _, _, x, y = _run(good, lint="off")
        np.testing.assert_allclose(y, 2.0 * x, rtol=1e-6)

        # under-declared: y never enters out_args, so the runtime neither
        # merges CPU results nor commits GPU results — the read-back is
        # wrong wherever the *other* device computed
        bad = _mis_declared_scale_kernel(declared=Intent.IN)
        _, _, x, y = _run(bad, lint="off")
        assert not np.allclose(y, 2.0 * x, rtol=1e-6)

    def test_strict_gate_prevents_the_corruption(self):
        bad = _mis_declared_scale_kernel(declared=Intent.IN)
        with pytest.raises(LintError):
            _run(bad, lint="strict")
