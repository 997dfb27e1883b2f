"""``python -m repro.harness lint`` — exit codes, output shapes, self-test."""

import json
import os

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.lint_cli import _example_factories, lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXAMPLES = os.path.join(REPO_ROOT, "examples")


class TestLintMain:
    def test_suite_lints_clean(self, capsys):
        code = lint_main(["--examples", EXAMPLES])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out
        assert "0 not fluidic-safe" in out

    def test_single_app_subset(self, capsys):
        code = lint_main(["--apps", "gemm", "--no-examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 kernel(s) analyzed" in out

    def test_verbose_lists_clean_kernels(self, capsys):
        code = lint_main(["--apps", "gemm", "--no-examples", "--verbose"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gemm_kernel" in out

    def test_disabled_aborts_surface_fk301(self, capsys):
        code = lint_main(["--no-abort-in-loops", "--no-examples"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FK301" in out

    def test_json_output(self, capsys):
        code = lint_main(["--apps", "gemm", "--no-examples", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload[0]["kernel"] == "gemm_kernel"
        assert payload[0]["fluidic_safe"] is True
        assert payload[0]["findings"] == []

    def test_known_bad_self_test(self, capsys):
        code = lint_main(["--known-bad"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MISSED" not in out
        assert "expected=FK101" in out

    def test_known_bad_json(self, capsys):
        code = lint_main(["--known-bad", "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(row["caught"] for row in rows)

    def test_dispatch_through_harness_main(self, capsys):
        code = harness_main(["lint", "--apps", "gemm", "--no-examples"])
        assert code == 0
        assert "analyzed" in capsys.readouterr().out

    def test_unknown_app_is_a_usage_error(self, capsys):
        """Exit status 2 with the valid names, not the "findings" status 1."""
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["--apps", "nosuch", "--no-examples"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'nosuch'" in err and "'gemm'" in err


class TestExampleDiscovery:
    def test_finds_example_kernel_factories(self):
        factories = dict(_example_factories(EXAMPLES))
        assert "custom_kernel.py:smooth_kernel" in factories
        assert "custom_kernel.py:smooth_kernel_cpu_tuned" in factories
        spec = factories["custom_kernel.py:smooth_kernel"]()
        assert spec.name == "smooth"

    def test_missing_directory_is_empty(self):
        assert _example_factories("/nonexistent/dir") == []
