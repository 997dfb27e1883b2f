"""Known-bad fixtures are flagged; the real suite lints clean.

Mirrors ``check --known-bad``: the planted defects guard the analyzers
against regressions, and the suite-wide clean run guards the kernels and
pipelines against declared-intent drift.
"""

import os

import pytest

from repro.analysis.analyzer import analyze_app, analyze_kernel
from repro.analysis.known_bad import KNOWN_BAD_CASES
from repro.polybench.suite import EXTENDED_SUITE, make_app

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestKnownBad:
    @pytest.mark.parametrize("case", KNOWN_BAD_CASES,
                             ids=[c.name for c in KNOWN_BAD_CASES])
    def test_case_flags_expected_rule(self, case):
        report = case.analyze()
        assert case.expected_rule in report.rule_ids(), report.render()

    def test_error_cases_are_not_fluidic_safe(self):
        for case in KNOWN_BAD_CASES:
            report = case.analyze()
            expected = report.findings[0].rule
            if any(f.rule_id == case.expected_rule
                   and f.severity.value == "error" for f in report.findings):
                assert not report.fluidic_safe, (case.name, expected)


class TestSuiteLintsClean:
    @pytest.mark.parametrize("app_name", EXTENDED_SUITE)
    def test_polybench_app_lints_clean(self, app_name):
        # every kernel the app launches, plus its whole pipeline when it
        # is a PipelineApp: one more report through the same entry
        app = make_app(app_name, scale="test")
        specs = app.kernel_specs()
        assert specs, f"{app_name} must expose kernel_specs()"
        reports = analyze_app(app)
        pipelines = [r for r in reports if r.version == "pipeline"]
        assert len(reports) == len(specs) + len(pipelines)
        shipped_pipelines = ("2mm", "3mm", "bfs", "scan")
        assert len(pipelines) == (1 if app_name in shipped_pipelines else 0)
        for report in reports:
            assert not report.findings, report.render()

    def test_corr_tuned_version_lints_clean(self):
        app = make_app("corr", scale="test")
        app.provide_cpu_tuned_kernel = True
        reports = analyze_app(app)
        assert any(r.version == "loop_interchanged" for r in reports)
        for report in reports:
            assert not report.findings, report.render()

    def test_example_kernels_lint_clean(self):
        from repro.harness.lint_cli import _example_factories

        factories = _example_factories(os.path.join(REPO_ROOT, "examples"))
        assert factories, "examples/ must contain kernel factories"
        for label, factory in factories:
            report = analyze_kernel(factory())
            assert not report.findings, f"{label}: {report.render()}"
