"""Artifact hygiene: benchmark and CLI runs never dirty the working tree.

Tracked outputs (``benchmarks/results/*.txt`` goldens, committed
``BENCH_<n>.json`` snapshots) are only ever (re)written behind explicit
flags; everything a default run produces is either git-ignored
(``BENCH_*.json``) or routed under ``out/``.
"""

import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if proc.returncode not in (0, 1):  # check-ignore uses 1 for "not ignored"
        pytest.skip(f"git {args[0]} failed: {proc.stderr.strip()}")
    return proc.stdout


def _load_benchmarks_conftest():
    path = REPO_ROOT / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestResultRouting:
    def test_default_results_dir_is_untracked_out(self):
        conftest = _load_benchmarks_conftest()
        default_dir = conftest.results_dir_for(False)
        assert default_dir == REPO_ROOT / "out" / "benchmarks" / "results"

    def test_golden_flag_routes_to_tracked_results(self):
        conftest = _load_benchmarks_conftest()
        golden_dir = conftest.results_dir_for(True)
        assert golden_dir == REPO_ROOT / "benchmarks" / "results"

    def test_record_result_default_writes_under_out(self, tmp_path,
                                                    monkeypatch):
        conftest = _load_benchmarks_conftest()
        monkeypatch.setattr(conftest, "OUT_RESULTS_DIR",
                            tmp_path / "out" / "results")
        monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path / "golden")

        class FakeResult:
            experiment_id = "figX"

            def render(self):
                return "table"

        class FakeConfig:
            @staticmethod
            def getoption(name):
                assert name == "--update-golden-results"
                return False

        class FakeRequest:
            config = FakeConfig()

        fixture_fn = getattr(conftest.record_result, "__wrapped__",
                             conftest.record_result)
        record = fixture_fn(FakeRequest())
        record(FakeResult())
        assert (tmp_path / "out" / "results" / "figX.txt").read_text() == \
            "table\n"
        assert not (tmp_path / "golden").exists()


class TestBenchSnapshotHygiene:
    def test_bench_snapshots_are_gitignored(self):
        out = _git("check-ignore", "BENCH_99.json")
        assert "BENCH_99.json" in out

    def test_next_snapshot_path_never_reuses_existing(self, tmp_path):
        sys.path.insert(0, str(REPO_ROOT / "src"))
        try:
            from repro.bench.snapshot import next_snapshot_path
        finally:
            sys.path.pop(0)
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        assert next_snapshot_path(str(tmp_path)).endswith("BENCH_8.json")

    def test_bench_smoke_run_leaves_working_tree_clean(self):
        """The acceptance path: a real `harness bench` smoke run at the repo
        root must not change `git status` (the fresh snapshot is ignored)."""
        from repro.harness.bench_cli import bench_main

        before = _git("status", "--porcelain")
        existing = {p.name for p in REPO_ROOT.glob("BENCH_*.json")}
        code = bench_main([
            "--smoke", "--repeats", "1", "--warmup", "0",
            "--baseline", "none", "--dir", str(REPO_ROOT),
        ])
        created = {
            p.name for p in REPO_ROOT.glob("BENCH_*.json")
        } - existing
        try:
            assert code == 0
            after = _git("status", "--porcelain")
            assert after == before
            assert len(created) == 1
            assert re.match(r"BENCH_\d+\.json", next(iter(created)))
        finally:
            for name in created:
                (REPO_ROOT / name).unlink()
