"""End-to-end: an undeclared inter-stage write corrupts a cooperative
three-device run, and the strict pipeline gate refuses to launch it.

The pipeline-level twin of ``test_gate.TestEndToEndCorruption``.  The
planted defect is FK401 made real: stage ``wp_sneaky`` accumulates into
``tmp`` in its body while binding it with Intent.IN, so the write never
enters ``out_args`` — FluidiCL neither merges the partitions nor bumps
the version, leaving every device's ``tmp`` copy holding its *own*
partition of the accumulation over the stale produce values.  The
consumer reads ``tmp`` reversed, so each device observes rows another
device computed: on a cpu+2gpu machine the read-back provably diverges
from the serial semantics, by construction and not by luck.  Declaring
the same binding Intent.INOUT is the one-line fix: the accumulation is
merged like any other output and every mode runs clean.

``lint="strict"`` refuses the whole pipeline before a single buffer is
created; ``lint="warn"`` launches it but emits the FK401 finding as a
typed ``lint_finding`` event.
"""

import gc

import numpy as np
import pytest

from repro.analysis import LintError
from repro.analysis.known_bad import host_clobber
from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.hw.cost import WorkGroupCost
from repro.hw.machine import build_machine
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.obs.events import EventKind
from repro.ocl.ndrange import NDRange

# repro.polybench must finish loading before repro.workloads.pipeline is
# imported fresh (import cycle; see repro.analysis.pipeline_facts)
import repro.polybench  # noqa: E402,F401
from repro.workloads.pipeline import BufferDecl, KernelStage, PipelineApp

N, LOCAL = 4096, 16

_COST = WorkGroupCost(
    flops=LOCAL * 32.0,
    bytes_read=LOCAL * 4 * 64.0 * 32,
    bytes_written=LOCAL * 4 * 64.0 * 32,
    loop_iters=32,
    compute_efficiency={"cpu": 0.5, "gpu": 0.5},
    memory_efficiency={"cpu": 0.5, "gpu": 0.5},
)


def _produce_body(ctx):
    rows = ctx.rows()
    ctx["tmp"][rows] = 2.0 * ctx["x"][rows]


def _sneaky_body(ctx):
    rows = ctx.rows()
    ctx["tmp"][rows] += ctx["x"][rows]  # undeclared when bound Intent.IN
    ctx["z"][rows] = ctx["x"][rows]


def _consume_body(ctx):
    rows = ctx.rows()
    rev = ctx["tmp"][::-1]
    ctx["y"][rows] = rev[rows] + 1.0


class WawPipelineApp(PipelineApp):
    """produce -> sneaky (undeclared tmp rewrite) -> reversed consume."""

    name = "waw-toy"

    def __init__(self, tmp_intent=Intent.IN, seed=3):
        super().__init__(seed)
        self.n = N
        self.tmp_intent = tmp_intent

    def build_inputs(self, rng):
        return {"x": rng.standard_normal(self.n).astype(np.float32)}

    def reference(self, inputs):
        # serial semantics: the sneaky in-place write wins everywhere
        return {"y": 3.0 * inputs["x"][::-1] + 1.0}

    def kernel_metas(self):
        return []

    def buffer_decls(self):
        n = self.n
        return [
            BufferDecl("x", (n,), np.float32, init="x"),
            BufferDecl("tmp", (n,), np.float32),
            BufferDecl("z", (n,), np.float32),
            BufferDecl("y", (n,), np.float32, read="y"),
        ]

    def stages(self):
        nd = NDRange(self.n, LOCAL)
        return [
            KernelStage(
                spec=KernelSpec(
                    name="wp_produce",
                    args=(buffer_arg("x"), buffer_arg("tmp", Intent.OUT)),
                    body=_produce_body, cost=_COST),
                ndrange=nd, binds={"x": "x", "tmp": "tmp"}),
            KernelStage(
                spec=KernelSpec(
                    name="wp_sneaky",
                    args=(buffer_arg("x"),
                          buffer_arg("tmp", self.tmp_intent),
                          buffer_arg("z", Intent.OUT)),
                    body=_sneaky_body, cost=_COST),
                ndrange=nd, binds={"x": "x", "tmp": "tmp", "z": "z"}),
            KernelStage(
                spec=KernelSpec(
                    name="wp_consume",
                    args=(buffer_arg("tmp"), buffer_arg("y", Intent.OUT)),
                    body=_consume_body, cost=_COST),
                ndrange=nd, binds={"tmp": "tmp", "y": "y"}),
        ]


def _run(app, lint, trace=False):
    machine = build_machine(preset="cpu+2gpu", trace=trace)
    runtime = FluidiCLRuntime(machine, config=FluidiCLConfig(lint=lint))
    inputs = app.fresh_inputs()
    result = app.execute(runtime, inputs=inputs, check=False)
    expected = app.reference(inputs)["y"]
    return runtime, machine, result.outputs["y"], expected


class TestStaticVerdict:
    def test_defective_pipeline_reports_fk401(self):
        report = WawPipelineApp().analyze()
        assert "FK401" in report.rule_ids()
        assert not report.fluidic_safe

    def test_fixed_pipeline_is_clean(self):
        report = WawPipelineApp(tmp_intent=Intent.INOUT).analyze()
        assert report.findings == []


class TestEndToEndCorruption:
    def test_declared_inout_is_correct_cooperatively(self):
        # control: same pipeline with the write declared — the merge runs
        # and the cooperative three-device result matches serial semantics
        app = WawPipelineApp(tmp_intent=Intent.INOUT)
        _, _, y, expected = _run(app, lint="off")
        np.testing.assert_allclose(y, expected, rtol=1e-6)

    def test_undeclared_write_corrupts_cooperative_result(self):
        app = WawPipelineApp()
        _, _, y, expected = _run(app, lint="off")
        assert not np.allclose(y, expected, rtol=1e-6), (
            "the undeclared inter-stage write should corrupt the "
            "cooperative result"
        )

    def test_strict_gate_prevents_the_corruption(self):
        app = WawPipelineApp()
        machine = build_machine(preset="cpu+2gpu", trace=True)
        runtime = FluidiCLRuntime(machine,
                                  config=FluidiCLConfig(lint="strict"))
        with pytest.raises(LintError) as excinfo:
            app.execute(runtime, check=False)
        assert "FK401" in str(excinfo.value)
        # refused before anything launched: no kernel records, no kernel
        # events, not even the pipeline's buffers
        assert runtime.records == []
        assert not [e for e in machine.tracer.events
                    if e.kind is EventKind.KERNEL]

    def test_strict_passes_the_fixed_pipeline(self):
        app = WawPipelineApp(tmp_intent=Intent.INOUT)
        _, _, y, expected = _run(app, lint="strict")
        np.testing.assert_allclose(y, expected, rtol=1e-6)


class TestWarnGate:
    def test_warn_emits_finding_and_launches(self):
        app = WawPipelineApp()
        runtime, machine, y, expected = _run(app, lint="warn", trace=True)
        lint_events = [e for e in machine.tracer.events
                       if e.kind is EventKind.LINT]
        pipeline_events = [e for e in lint_events
                           if e.get("version") == "pipeline"]
        assert pipeline_events, "warn mode must surface the FK401 finding"
        event = pipeline_events[0]
        assert event["rule"] == "FK401"
        assert event["severity"] == "error"
        assert event["buffer"] == "tmp"
        # it launched anyway — and produced the corruption it warned about
        assert len(runtime.records) == 3
        assert not np.allclose(y, expected, rtol=1e-6)

    def test_warn_is_silent_on_the_fixed_pipeline(self):
        app = WawPipelineApp(tmp_intent=Intent.INOUT)
        _, machine, _, _ = _run(app, lint="warn", trace=True)
        assert not [e for e in machine.tracer.events
                    if e.kind is EventKind.LINT]


class HostClobberApp(PipelineApp):
    """The FK404 ``host-clobber`` known-bad fixture as a runnable app."""

    name = "host-clobber"

    def build_inputs(self, rng):
        return {"x": rng.standard_normal(64).astype(np.float32)}

    def reference(self, inputs):  # pragma: no cover - run unchecked
        return {}

    def kernel_metas(self):
        return []

    def buffer_decls(self):
        return host_clobber()[0]

    def stages(self):
        return host_clobber()[1]


class TestFindingsOncePerRuntime:
    def test_every_fresh_runtime_reports_the_finding(self):
        """Each runtime surfaces the pipeline's FK404 exactly once, even
        when it reuses the memory (and so the ``id``) of a collected one."""
        app = HostClobberApp()
        counts = []
        for _ in range(30):
            runtime = FluidiCLRuntime(build_machine(),
                                      config=FluidiCLConfig(lint="warn"))
            app.execute(runtime, check=False)
            counts.append(runtime.stats.extra["lint_findings"])
            del runtime
            gc.collect()
        assert counts == [1] * 30

    def test_rerun_on_the_same_runtime_reports_nothing_new(self):
        app = HostClobberApp()
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine, config=FluidiCLConfig(lint="warn"))
        app.execute(runtime, check=False)
        HostClobberApp().execute(runtime, check=False)
        events = [e for e in machine.tracer.events
                  if e.kind is EventKind.LINT]
        assert [e["rule"] for e in events] == ["FK404"]
        assert runtime.stats.extra["lint_findings"] == 1
