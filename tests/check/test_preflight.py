"""The fuzzer's static pre-flight: unsafe kernels are never scheduled."""

from repro.analysis.known_bad import cross_group_write_kernel
from repro.check import fuzzer as fuzzer_mod
from repro.check.fuzzer import FuzzConfig, preflight_lint, run_config
from repro.core.config import FluidiCLConfig
from repro.polybench.common import PolybenchApp
from repro.polybench.suite import make_app


class _UnsafeApp(PolybenchApp):
    """Stub app whose single kernel races across work-groups."""

    name = "unsafe-stub"

    def build_inputs(self, rng):  # pragma: no cover - never scheduled
        return {}

    def reference(self, inputs):  # pragma: no cover - never scheduled
        return {}

    def host_program(self, runtime, inputs):  # pragma: no cover
        raise AssertionError("lint-rejected app must not run")

    def kernel_metas(self):  # pragma: no cover - never scheduled
        return []

    def kernel_specs(self):
        return [cross_group_write_kernel()]


class TestPreflightLint:
    def test_clean_app_passes(self):
        app = make_app("gesummv", scale="test", size=64)
        assert preflight_lint(app, FuzzConfig(seed=0)) == []

    def test_unsafe_app_is_reported(self):
        reports = preflight_lint(_UnsafeApp(), FuzzConfig(seed=0))
        assert len(reports) == 1
        assert "FK201" in reports[0].rule_ids()

    def test_app_without_specs_passes_through(self):
        app = make_app("gesummv", scale="test", size=64)
        app.kernel_specs = lambda: None
        assert preflight_lint(app, FuzzConfig(seed=0)) == []

    def test_variant_flags_are_honored(self):
        # gesummv kernels are long-loop but FK301 is WARNING severity, so
        # even an abort-less draw stays schedulable (preflight only rejects
        # on errors)
        app = make_app("gesummv", scale="test", size=64)
        config = FuzzConfig(seed=0, runtime=FluidiCLConfig(
            abort_in_loops=False, loop_unroll=False))
        assert preflight_lint(app, config) == []


class TestRunConfigRejection:
    def test_run_config_skips_unsafe_app(self, monkeypatch):
        monkeypatch.setattr(fuzzer_mod, "make_app",
                            lambda *a, **k: _UnsafeApp())
        result = run_config(FuzzConfig(seed=0, app="gesummv", size=64))
        assert result.outcome == "lint-rejected"
        assert not result.failed
        assert "FK201" in result.error
        assert result.checks == 0

    def test_run_config_still_runs_clean_apps(self):
        result = run_config(FuzzConfig(seed=0, app="gesummv", size=64))
        assert result.outcome == "ok"
        assert result.correct is True
