"""Every planted pipeline defect fires exactly its expected rule.

The pipeline half of ``test_known_bad``: each pipeline fixture in
:mod:`repro.analysis.known_bad` is structurally valid (it passes
``validate_pipeline``) and carries exactly one planted FK4xx/FK5xx
defect — the analyzer must report that rule and nothing else, so the
fixtures double as a stray-findings regression net.
"""

import pytest

from repro.analysis.known_bad import KNOWN_BAD_CASES
from repro.kernels.dsl import KernelSpec
from repro.workloads.pipeline import validate_pipeline

PIPELINE_CASES = [case for case in KNOWN_BAD_CASES
                  if not isinstance(case.factory(), KernelSpec)]
CASE_IDS = [case.name for case in PIPELINE_CASES]


@pytest.mark.parametrize("case", PIPELINE_CASES, ids=CASE_IDS)
class TestEachCase:
    def test_passes_structural_validation(self, case):
        decls, stages = case.factory()
        validate_pipeline(decls, stages)  # must not raise

    def test_fires_expected_rule(self, case):
        report = case.analyze()
        assert case.expected_rule in report.rule_ids(), (
            f"{case.name}: expected {case.expected_rule}, "
            f"got {report.rule_ids()}"
        )

    def test_no_stray_findings(self, case):
        # exactly the planted defect: a second rule firing means either a
        # fixture regression or an over-eager analyzer
        report = case.analyze()
        assert set(report.rule_ids()) == {case.expected_rule}

    def test_findings_carry_attribution(self, case):
        report = case.analyze()
        for finding in report.findings:
            assert finding.stage, f"{case.name}: finding without a stage"
            payload = finding.as_dict()
            assert payload["severity"] in ("error", "warning", "info")
            assert payload["hint"], f"{case.name}: finding without a hint"


class TestCatalog:
    def test_covers_both_rule_families(self):
        expected = {case.expected_rule for case in PIPELINE_CASES}
        assert {"FK401", "FK402", "FK403", "FK404", "FK405"} <= expected
        assert {"FK501", "FK502"} <= expected

    def test_at_least_five_fixtures(self):
        assert len(PIPELINE_CASES) >= 5
