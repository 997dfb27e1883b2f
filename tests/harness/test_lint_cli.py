"""``python -m repro.harness lint`` — exit codes, output shapes, self-test."""

import json
import os
import re
import shlex

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.lint_cli import _build_parser, _example_factories, lint_main

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
        # one mode: the suite's and examples' kernels plus every pipeline
        assert "28 kernel(s) analyzed, 4 pipeline(s)" in out

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
        assert "14 of 14 known-bad cases" in out

    def test_known_bad_json(self, capsys):
        code = lint_main(["--known-bad", "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(row["caught"] for row in rows)
        # kernel and pipeline fixtures run as one self-test
        assert len(rows) == 14
        assert {"FK101", "FK401", "FK501"} <= {row["expected"] for row in rows}

    def test_json_carries_one_pipeline_report_per_pipeline_app(self, capsys):
        code = lint_main(["--no-examples", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        pipelines = [r for r in payload if r["version"] == "pipeline"]
        assert sorted(r["kernel"] for r in pipelines) == [
            "2mm", "3mm", "bfs", "scan"]
        assert all(r["origin"] == r["kernel"] for r in pipelines)
        assert all(r["fluidic_safe"] and not r["findings"]
                   for r in pipelines)

    def test_pipelines_flag_is_gone(self, capsys):
        """Pipelines are part of the one mode; the old switch is a usage
        error, not a silent no-op."""
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["--pipelines"])
        assert exit_info.value.code == 2
        assert "--pipelines" in capsys.readouterr().err

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


def _readme_lint_commands():
    """Arguments of every ``python -m repro.harness lint`` line in the
    README's code blocks."""
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```[^\n]*\n(.*?)```", fh.read(), re.S)
    commands = []
    for block in blocks:
        for line in block.splitlines():
            match = re.search(r"python -m repro\.harness lint\b(.*)", line)
            if match:
                commands.append(shlex.split(match.group(1), comments=True))
    return commands


class TestReadmeCommands:
    def test_every_readme_lint_line_parses(self, capsys):
        commands = _readme_lint_commands()
        assert commands, "README.md documents the lint CLI"
        parser = _build_parser()
        broken = []
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                broken.append(" ".join(argv))
        assert not broken, f"README lint lines that do not parse: {broken}"
