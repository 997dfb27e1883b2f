"""Tests for the ``python -m repro.harness`` command-line interface."""

import json

import pytest

from repro.harness.__main__ import main


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "GESUMMV" in out
        assert "harness wall time" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table2", "table1"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "table1" in out

    def test_extension_experiment_dispatches(self, capsys):
        assert main(["ext_location"]) == 0
        assert "ext_location" in capsys.readouterr().out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["fig99"])

    def test_help_lists_extensions(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "ext_phi" in out


class TestTraceSubcommand:
    def test_smoke_emits_valid_chrome_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "== trace: gesummv @ test" in printed
        assert "metrics:" in printed
        with open(out_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        events = trace["traceEvents"]
        assert events
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        assert all(
            {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            for e in complete
        )
        assert "metrics" in trace["otherData"]

    def test_metrics_show_declined_aborts_and_skipped_merges(
            self, capsys, tmp_path):
        """gemm's Tesla runs its covered last wave whole (a 71 us merge
        against 30 us saved), so the Xeon's landing area is not merged."""
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--app", "gemm", "--scale", "small",
                     "--no-gantt", "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "gpu-only" in printed
        assert "'merges': 0, 'merges_skipped': 1, 'aborts_declined': 1" in printed
        with open(out_path, encoding="utf-8") as handle:
            metrics = json.load(handle)["otherData"]["metrics"]
        assert metrics["aborts_declined"] == 1
        assert metrics["merges_skipped"] == 1

    def test_no_gantt_skips_chart(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--no-gantt",
                     "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "busy" not in printed  # Gantt rows end with "NN% busy"

    def test_machine_preset_shows_every_front_lane(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--app", "gesummv",
                     "--machine", "cpu+2gpu", "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "== trace: gesummv @ test on cpu+2gpu" in printed
        # the anchor's lane and one lane per worker front
        lanes = {line.split()[0] for line in printed.splitlines()
                 if line.endswith("busy")}
        assert {"fluidicl-app", "fluidicl-w1", "fluidicl-w2"} <= lanes

    def test_fault_device_names_a_device_of_the_preset(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--machine", "cpu+2gpu",
                     "--faults", "device-loss",
                     "--fault-device", "Tesla C2070 #2",
                     "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "Tesla C2070 #2" in printed and "transfer_retries" in printed

    def test_transfer_fault_retries(self, capsys, tmp_path):
        """bicg issues no host-to-device transfer on the anchor after the
        default strike, so a transfer fault arming H2D failures alone
        would retry nothing."""
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--app", "bicg",
                     "--faults", "transfer-fault", "--no-gantt",
                     "--out", str(out_path)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.strip().startswith("resilience:")]
        retries = int(line.split("'transfer_retries': ")[1].rstrip("}"))
        assert retries >= 1

    def test_transfer_fault_reports_pending_failures(self, capsys, tmp_path):
        """gesummv's kernel completes on the CPU, so the GPU makes no
        device-to-host transfer after the strike: both armed D2H failures
        stay unconsumed, and the resilience line says so per device."""
        import ast

        out_path = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--app", "gesummv",
                     "--faults", "transfer-fault", "--no-gantt",
                     "--out", str(out_path)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.strip().startswith("resilience:")]
        resilience = ast.literal_eval(line.split("resilience: ", 1)[1])
        assert resilience["pending_transfer_faults"] == {
            "Tesla C2070": {"h2d": 0, "d2h": 2},
            "Xeon W3550": {"h2d": 0, "d2h": 0},
        }

    def test_transfer_fault_counts_only_the_spec_that_struck(self, capsys,
                                                             tmp_path):
        """Of gesummv's two transfer-fault specs only the H2D one fails a
        transfer; the D2H one is armed but never strikes, so one fault
        was injected, not two."""
        import ast

        out_path = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--app", "gesummv",
                     "--faults", "transfer-fault", "--no-gantt",
                     "--out", str(out_path)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.strip().startswith("resilience:")]
        resilience = ast.literal_eval(line.split("resilience: ", 1)[1])
        assert resilience["faults_injected"] == 1
        assert resilience["transfer_retries"] == 2
        trace = json.loads(out_path.read_text())
        (struck,) = [e for e in trace["traceEvents"]
                     if e.get("name") == "transfer-fault"]
        assert struck["args"]["direction"] == "h2d"

    @pytest.mark.parametrize("argv,named", [
        (["--machine", "nosuch"], "'nosuch'"),
        # a device of cpu+2gpu, but not of the default pair
        (["--fault-device", "Tesla C2070 #2"], "'Tesla C2070 #2'"),
    ])
    def test_unknown_machine_or_device_is_a_usage_error(self, capsys, argv,
                                                        named):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--smoke", *argv])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    def test_unknown_app_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--app", "nosuch"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'nosuch'" in err and "'gesummv'" in err

    @pytest.mark.parametrize("fault_at,reason", [
        ("-1", "--fault-at: must be >= 0, got -1"),
        ("soon", "--fault-at: invalid float value: 'soon'"),
    ])
    def test_out_of_range_fault_time_is_a_usage_error(
            self, capsys, tmp_path, fault_at, reason):
        out_path = tmp_path / "trace.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--smoke", "--faults", "device-loss",
                  "--fault-at", fault_at, "--out", str(out_path)])
        assert exit_info.value.code == 2
        assert reason in capsys.readouterr().err
        assert not out_path.exists()
