"""The runtime sanitizer: observed dataflow vs. the static prediction.

Unit level: a :class:`PipelineSanitizer` fed synthetic ``kernel_begin`` /
``commit`` / ``buffer_write`` / ``buffer_read`` events must attribute
versions to producers exactly as :mod:`repro.core.buffers` defines them
(versions *are* kernel ids) and flag FK591/FK592 divergences.

Integration level: the :class:`PipelineApp` wiring attaches the sanitizer
to every traced, linted cooperative run — clean pipelines validate with
zero violations and zero extra events, while a rogue kernel the declared
pipeline never mentions is flagged at its commit (FK591) and again when
the read-back serves its version (FK592); under ``lint="strict"`` the
violation raises mid-run.
"""

import numpy as np
import pytest

from repro.analysis import HOST_PRODUCER
from repro.analysis.pipeline_sanitizer import (
    PipelineSanitizer,
    PipelineSanitizerError,
)
from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.hw.cost import WorkGroupCost
from repro.hw.machine import build_machine
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.obs.events import EventKind, Phase, TraceEvent
from repro.ocl.ndrange import NDRange
from repro.polybench.suite import make_app
from repro.workloads.pipeline import BufferDecl, KernelStage, PipelineApp


def _event(category, **attrs):
    return TraceEvent(ts=0.0, kind=EventKind.GENERIC, phase=Phase.INSTANT,
                      name=category, track="test", attrs=attrs,
                      category=category)


class TestUnitAttribution:
    def test_commit_by_predicted_kernel_is_clean(self):
        s = PipelineSanitizer({"a": {"k1"}})
        s(_event("kernel_begin", kernel="k1", kernel_id=7))
        s(_event("commit", kernel_id=7, buffers=["a"]))
        s(_event("buffer_read", buffer="a", version=7))
        assert s.violations == []
        assert s.checks == 2

    def test_commit_by_unpredicted_kernel_is_fk591(self):
        s = PipelineSanitizer({"a": {"k1"}})
        s(_event("kernel_begin", kernel="rogue", kernel_id=9))
        s(_event("commit", kernel_id=9, buffers=["a"]))
        assert [v.rule_id for v in s.violations] == ["FK591"]
        assert s.violations[0].producer == "rogue"
        assert s.violations[0].buffer == "a"

    def test_read_of_unattributed_version_is_fk592(self):
        s = PipelineSanitizer({"a": {"k1"}})
        s(_event("buffer_read", buffer="a", version=99))
        assert [v.rule_id for v in s.violations] == ["FK592"]
        assert s.violations[0].producer is None

    def test_host_write_attributes_to_host_producer(self):
        s = PipelineSanitizer({"a": {HOST_PRODUCER}})
        s(_event("buffer_write", buffer="a", version=3))
        s(_event("buffer_read", buffer="a", version=3))
        assert s.violations == []

    def test_host_write_not_predicted_is_fk592(self):
        s = PipelineSanitizer({"a": {"k1"}})
        s(_event("buffer_write", buffer="a", version=3))
        s(_event("buffer_read", buffer="a", version=3))
        assert [v.rule_id for v in s.violations] == ["FK592"]
        assert s.violations[0].producer == HOST_PRODUCER

    def test_undeclared_buffers_are_ignored(self):
        s = PipelineSanitizer({"a": {"k1"}})
        s(_event("commit", kernel_id=5, buffers=["helper"]))
        s(_event("buffer_read", buffer="helper", version=5))
        assert s.violations == []
        assert s.checks == 0

    def test_strict_raises_at_the_event(self):
        s = PipelineSanitizer({"a": {"k1"}}, strict=True)
        with pytest.raises(PipelineSanitizerError) as excinfo:
            s(_event("buffer_read", buffer="a", version=1))
        assert excinfo.value.violation.rule_id == "FK592"
        finding = excinfo.value.violation.as_finding()
        assert finding.rule_id == "FK592"
        assert finding.buffer == "a"


class TestCleanRuns:
    @pytest.mark.parametrize("name", ["scan", "2mm"])
    def test_shipped_pipeline_validates_clean(self, name, monkeypatch):
        captured = []
        orig = PipelineSanitizer.__init__

        def spy(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            captured.append(self)

        monkeypatch.setattr(PipelineSanitizer, "__init__", spy)
        app = make_app(name, scale="test")
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine,
                                  config=FluidiCLConfig(lint="warn"))
        app.execute(runtime, check=False)
        assert len(captured) == 1, "the wiring must attach one sanitizer"
        sanitizer = captured[0]
        assert sanitizer.checks > 0, "a traced run must validate something"
        assert sanitizer.violations == []
        # a clean run emits no lint events: traces stay byte-identical
        assert not [e for e in machine.tracer.events
                    if e.kind is EventKind.LINT]

    def test_sanitizer_disabled_by_config(self, monkeypatch):
        """``lint="off"`` disables the sanitizer: a traced run builds none."""
        captured = []
        orig = PipelineSanitizer.__init__

        def spy(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            captured.append(self)

        monkeypatch.setattr(PipelineSanitizer, "__init__", spy)
        for lint in ("warn", "off"):
            runtime = FluidiCLRuntime(build_machine(trace=True),
                                      config=FluidiCLConfig(lint=lint))
            make_app("scan", scale="test").execute(runtime, check=False)
        assert len(captured) == 1, "only the lint='warn' run builds one"

    def test_untraced_run_skips_the_sanitizer(self, monkeypatch):
        captured = []
        orig = PipelineSanitizer.__init__

        def spy(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            captured.append(self)

        monkeypatch.setattr(PipelineSanitizer, "__init__", spy)
        app = make_app("scan", scale="test")
        runtime = FluidiCLRuntime(build_machine(trace=False),
                                  config=FluidiCLConfig(lint="warn"))
        app.execute(runtime, check=False)
        assert captured == []


# -- a pipeline whose execution drifts from its declaration ------------------
N, LOCAL = 256, 16
_COST = WorkGroupCost(
    flops=LOCAL * 32.0,
    bytes_read=LOCAL * 4 * 64.0 * 32,
    bytes_written=LOCAL * 4 * 64.0 * 32,
    loop_iters=32,
    compute_efficiency={"cpu": 0.5, "gpu": 0.5},
    memory_efficiency={"cpu": 0.5, "gpu": 0.5},
)


def _scale_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = 2.0 * ctx["x"][rows]


def _rogue_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = 5.0 * ctx["x"][rows]


_ROGUE_SPEC = KernelSpec(
    name="rogue_scale",
    args=(buffer_arg("x"), buffer_arg("y", Intent.OUT)),
    body=_rogue_body, cost=_COST,
)


class RogueApp(PipelineApp):
    """Declares one scale kernel, then launches an undeclared second one."""

    name = "rogue-toy"

    def __init__(self, seed=5):
        super().__init__(seed)
        self.n = N

    def build_inputs(self, rng):
        return {"x": rng.standard_normal(self.n).astype(np.float32)}

    def reference(self, inputs):
        return {"y": 5.0 * inputs["x"]}

    def kernel_metas(self):
        return []

    def buffer_decls(self):
        return [
            BufferDecl("x", (self.n,), np.float32, init="x"),
            BufferDecl("y", (self.n,), np.float32, read="y"),
        ]

    def stages(self):
        return [KernelStage(
            spec=KernelSpec(name="wp_scale",
                            args=(buffer_arg("x"),
                                  buffer_arg("y", Intent.OUT)),
                            body=_scale_body, cost=_COST),
            ndrange=NDRange(self.n, LOCAL), binds={"x": "x", "y": "y"})]

    def _run_stages(self, runtime, buffers, decls_by_name, state, stages):
        super()._run_stages(runtime, buffers, decls_by_name, state, stages)
        # the drift: a launch the declared pipeline never mentions
        runtime.enqueue_nd_range_kernel(
            _ROGUE_SPEC, NDRange(self.n, LOCAL),
            {"x": buffers["x"], "y": buffers["y"]})


class TestDivergenceDetection:
    def test_warn_records_and_reports_the_divergence(self):
        app = RogueApp()
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine,
                                  config=FluidiCLConfig(lint="warn"))
        result = app.execute(runtime, check=False)
        # the rogue kernel really ran — its result is what reads back
        np.testing.assert_allclose(result.outputs["y"],
                                   app.reference(app.fresh_inputs())["y"],
                                   rtol=1e-6)
        lint_events = [e for e in machine.tracer.events
                       if e.kind is EventKind.LINT]
        rules = {e.get("rule") for e in lint_events}
        assert "FK591" in rules, "the rogue commit must be flagged"
        assert "FK592" in rules, "the rogue read-back must be flagged"
        assert runtime.stats.extra["lint_findings"] >= 2

    def test_strict_raises_at_the_rogue_commit(self):
        app = RogueApp()
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine,
                                  config=FluidiCLConfig(lint="strict"))
        with pytest.raises(PipelineSanitizerError) as excinfo:
            app.execute(runtime, check=False)
        assert excinfo.value.violation.rule_id in ("FK591", "FK592")
        assert excinfo.value.violation.buffer == "y"
