"""Suite-completeness regression: every registered app is fully wired.

Guards the registration contract new apps must satisfy: a size at every
scale, buildable at every scale, fuzzable at test scale (the fuzzer halves
sizes and requires multiples of 32 with a floor of 64), introspectable
kernel specs, and statically clean under the kernel linter.
"""

import pytest

from repro.analysis.analyzer import analyze_kernel
from repro.polybench.suite import EXTENDED_SUITE, SCALES, make_app

IRREGULAR = ("spmv", "histogram", "bfs", "scan")


class TestRegistration:
    def test_every_scale_covers_exactly_the_suite(self):
        assert set(SCALES) == {"paper", "small", "test"}
        for scale, sizes in SCALES.items():
            assert set(sizes) == set(EXTENDED_SUITE), (
                f"scale {scale!r} does not cover the suite exactly")

    def test_irregular_apps_are_registered_last(self):
        # the fuzzer maps seed -> app by index; appending keeps historical
        # seeds (and the bit-exact bench gate built on them) stable
        assert EXTENDED_SUITE[-4:] == IRREGULAR

    @pytest.mark.parametrize("scale", sorted(SCALES))
    @pytest.mark.parametrize("name", EXTENDED_SUITE)
    def test_buildable_at_every_scale(self, name, scale):
        app = make_app(name, scale)
        assert app.name == name
        assert app.input_size_label

    @pytest.mark.parametrize("name", EXTENDED_SUITE)
    def test_test_scale_is_fuzzable(self, name):
        size = SCALES["test"][name]
        assert size >= 128, "halving must stay above the fuzzer floor (64)"
        assert size % 64 == 0, "size and size//2 must be multiples of 32"


class TestIntrospection:
    @pytest.mark.parametrize("name", EXTENDED_SUITE)
    def test_kernel_specs_exposed(self, name):
        app = make_app(name, "test")
        specs = app.kernel_specs()
        assert specs, f"{name}: kernel_specs() must not be empty"
        meta_names = {m.name for m in app.kernel_metas()}
        spec_names = {s.name for s in specs}
        assert meta_names == spec_names, (
            f"{name}: kernel_metas() and kernel_specs() disagree")

    @pytest.mark.parametrize("name", EXTENDED_SUITE)
    def test_kernels_lint_clean(self, name):
        app = make_app(name, "test")
        reports = [analyze_kernel(spec) for spec in app.kernel_specs()]
        findings = [f for r in reports for f in r.findings]
        assert not findings, (
            f"{name}: linter found "
            f"{[(f.rule_id, f.message) for f in findings]}")
        assert all(r.fluidic_safe for r in reports)


class TestPipelineAnalysis:
    """Every shipped ``PipelineApp`` is FK4xx/FK5xx-clean at every scale.

    The whole-pipeline dataflow analyzer must report zero findings — not
    merely zero errors — for 2mm, 3mm, bfs and scan: the shipped suite is
    the analyzer's negative control, so any new finding here is either an
    app regression or an over-eager rule.
    """

    PIPELINE_APPS = ("2mm", "3mm", "bfs", "scan")

    def test_expected_apps_are_pipelines(self):
        from repro.workloads.pipeline import PipelineApp

        actual = {name for name in EXTENDED_SUITE
                  if isinstance(make_app(name, "test"), PipelineApp)}
        assert actual == set(self.PIPELINE_APPS)

    @pytest.mark.parametrize("scale", sorted(SCALES))
    @pytest.mark.parametrize("name", PIPELINE_APPS)
    def test_pipeline_analyzes_clean(self, name, scale):
        app = make_app(name, scale)
        report = app.analyze()
        assert report.findings == [], (
            f"{name}@{scale}: pipeline analyzer found "
            f"{[(f.rule_id, f.message) for f in report.findings]}")
        assert report.fluidic_safe
