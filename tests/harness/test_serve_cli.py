"""Tests for ``python -m repro.harness serve`` (the SLO load-test CLI)."""

import json

import pytest

from repro.harness.__main__ import main
from repro.harness.serve_cli import _parse_tenants, serve_main


class TestParseTenants:
    def test_full_spec(self):
        tenants = _parse_tenants("acme:bicg:64:interactive:3.0:2.0,"
                                 "beta:gemm:16:best-effort")
        assert [t.name for t in tenants] == ["acme", "beta"]
        assert tenants[0].weight == 3.0 and tenants[0].share == 2.0
        assert tenants[1].weight == 1.0 and tenants[1].share == 1.0

    def test_malformed_spec_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_tenants("acme:bicg")


class TestServeCli:
    def test_smoke_exits_zero(self, capsys):
        code = serve_main(["--requests", "80", "--n-tenants", "2",
                           "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenant0" in out and "tenant1" in out
        assert "coherence: OK" in out
        assert "digest:" in out

    def test_dispatch_through_harness_main(self, capsys):
        assert main(["serve", "--requests", "40", "--n-tenants", "1"]) == 0
        assert "coherence: OK" in capsys.readouterr().out

    def test_json_to_stdout(self, capsys):
        code = serve_main(["--requests", "40", "--n-tenants", "1",
                           "--json", "-"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["ok"] is True
        assert payload["totals"]["submitted"] == 40

    def test_json_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = serve_main(["--requests", "40", "--n-tenants", "1",
                           "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["digest"]
        assert f"report written to {path}" in capsys.readouterr().out

    def test_shed_gate_breach_exits_one(self, capsys):
        code = serve_main(["--requests", "150", "--n-tenants", "1",
                           "--utilization", "3.0", "--depth", "2",
                           "--inflight", "1", "--max-shed-rate", "0.0"])
        assert code == 1
        assert "shed-rate gate breached" in capsys.readouterr().err

    def test_explicit_tenant_mix(self, capsys):
        code = serve_main(["--requests", "40",
                           "--tenants", "solo:bicg:64:interactive"])
        assert code == 0
        assert "solo" in capsys.readouterr().out

    def test_faults_compose(self, capsys):
        code = serve_main(["--requests", "60", "--n-tenants", "1",
                           "--faults", "1", "--fault-n", "2"])
        assert code == 0
        assert "faults injected: 2" in capsys.readouterr().out

    def test_json_and_trace_create_their_directories(self, capsys, tmp_path):
        report = tmp_path / "new" / "serve.json"
        trace = tmp_path / "other" / "deeper" / "serve.trace.json"
        code = serve_main(["--requests", "40", "--n-tenants", "1",
                           "--json", str(report), "--trace", str(trace)])
        assert code == 0
        assert json.loads(report.read_text())["ok"] is True
        assert json.loads(trace.read_text())["traceEvents"]

    @pytest.mark.parametrize("args,reason", [
        (["--requests", "0"], "--requests: must be >= 1, got 0"),
        (["--depth", "0"], "--depth: must be >= 1, got 0"),
        (["--inflight", "0"], "--inflight: must be >= 1, got 0"),
        (["--utilization", "0"], "--utilization: must be > 0, got 0"),
        (["--rate", "-5"], "--rate: must be > 0, got -5"),
        (["--n-tenants", "0"], "--n-tenants: must be >= 1, got 0"),
        (["--arrival", "closed", "--clients", "0"],
         "--clients: must be >= 1, got 0"),
        (["--arrival", "burst", "--burst-factor", "0"],
         "--burst-factor: must be >= 1, got 0"),
        (["--arrival", "burst", "--on-fraction", "2"],
         "--on-fraction: must be > 0 and < 1, got 2"),
        (["--requests", "20", "--arrival", "closed", "--think", "-1"],
         "--think: must be >= 0, got -1"),
        (["--requests", "20", "--faults", "3", "--fault-n", "-2"],
         "--fault-n: must be >= 1, got -2"),
        (["--requests", "20", "--max-shed-rate", "-0.1"],
         "--max-shed-rate: must be >= 0, got -0.1"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, capsys, args, reason):
        """Exit status 2 with the bound, before any run: not a traceback,
        and not the violations / shed-gate status 1."""
        with pytest.raises(SystemExit) as exit_info:
            serve_main(args)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        assert "coherence:" not in captured.out
