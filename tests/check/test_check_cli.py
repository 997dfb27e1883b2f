"""Tests for ``python -m repro.harness check``."""

import os

import pytest

from repro.harness.__main__ import main
from repro.harness.check_cli import check_main


class TestCheckCli:
    def test_clean_campaign_exits_zero(self, capsys):
        assert check_main(["--seeds", "3", "--apps", "gesummv,bicg"]) == 0
        out = capsys.readouterr().out
        assert "seed 0" in out
        assert "0 failed" in out
        assert "invariant checks" in out

    def test_dispatch_through_harness_main(self, capsys):
        assert main(["check", "--seeds", "1", "--apps", "gesummv"]) == 0
        assert "gesummv" in capsys.readouterr().out

    def test_budget_skips_remaining_seeds(self, capsys):
        code = check_main(["--seeds", "5", "--budget-s", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "skipping remaining 5 seed(s)" in out
        assert "0 seed(s), 0 failed" in out

    def test_seed_range_is_resumable(self, capsys):
        assert check_main(["--seeds", "2", "--start-seed", "7",
                           "--apps", "gesummv"]) == 0
        out = capsys.readouterr().out
        assert "seed 7" in out and "seed 8" in out

    def test_known_bad_fails_shrinks_and_writes_reproducer(
            self, capsys, tmp_path):
        out_file = tmp_path / "reproducer.py"
        code = check_main([
            "--seeds", "1", "--apps", "gesummv",
            "--known-bad", "overlap-window",
            "--reproducer-out", str(out_file),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "cpu-front-partition" in out
        assert "shrinking failing seed 0" in out
        assert out_file.exists()
        source = out_file.read_text()
        assert "FuzzConfig" in source
        assert "overlap-window" in source
        compile(source, str(out_file), "exec")

    def test_known_bad_without_shrinking(self, capsys):
        code = check_main([
            "--seeds", "1", "--apps", "gesummv",
            "--known-bad", "stale-read", "--no-shrink",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "shrinking disabled" in out

    def test_reproducer_dir_is_created(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = check_main([
            "--seeds", "1", "--apps", "gesummv",
            "--known-bad", "frontier-jump",
        ])
        assert code == 1
        assert os.path.exists(os.path.join("out", "check-reproducer.py"))

    @pytest.mark.parametrize("flag,names,valid", [
        ("--apps", "gesummv,nosuch", "'bicg'"),
        ("--machines", "default,nosuch", "'cpu+2gpu'"),
    ])
    def test_unknown_name_is_a_usage_error(self, capsys, flag, names, valid):
        """Exit status 2 with the valid names, not the campaign's "a seed
        failed" status 1 (or a traceback)."""
        with pytest.raises(SystemExit) as exit_info:
            check_main(["--seeds", "1", flag, names])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'nosuch'" in err and valid in err

    @pytest.mark.parametrize("args,reason", [
        (["--seeds", "-3"], "--seeds: must be >= 1, got -3"),
        (["--seeds", "0"], "--seeds: must be >= 1, got 0"),
        (["--seeds", "2", "--budget-s", "-1"],
         "--budget-s: must be >= 0, got -1"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, capsys, args, reason):
        """A campaign that would run nothing is a usage error (exit
        status 2), not a clean campaign (exit status 0)."""
        with pytest.raises(SystemExit) as exit_info:
            check_main(args)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        assert "seed(s)" not in captured.out
