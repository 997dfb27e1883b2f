"""Unit tests for the repro.bench subsystem (measure / snapshot / gate)."""

import json

import pytest

from repro.bench.measure import Measurement, measure
from repro.bench.snapshot import (
    SCHEMA_VERSION,
    BenchResult,
    BenchSnapshot,
    compare_snapshots,
    find_snapshots,
    load_snapshot,
    next_snapshot_path,
)


def result(case_id="micro.x", throughput=100.0, simulated=None, **over):
    fields = dict(
        id=case_id, kind="micro", unit="ops/s", throughput=throughput,
        wall_seconds=1.0 / throughput, wall_mean_seconds=1.0 / throughput,
        spread=0.0, repeats=3, simulated_seconds=simulated,
    )
    fields.update(over)
    return BenchResult(**fields)


def snapshot(*results_):
    return BenchSnapshot(results=list(results_), created_at="t", host={},
                         config={})


class TestMeasure:
    def test_warmup_runs_are_untimed(self):
        calls = []
        timing = measure(lambda: calls.append(1), repeats=2, warmup=3)
        assert len(calls) == 5
        assert len(timing.runs) == 2

    def test_last_result_kept(self):
        timing = measure(lambda: {"work": 7}, repeats=2, warmup=0)
        assert timing.last_result == {"work": 7}

    def test_best_is_minimum(self):
        m = Measurement(runs=[0.3, 0.1, 0.2])
        assert m.best == 0.1
        assert m.mean == pytest.approx(0.2)
        assert m.spread == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup=-1)


class TestSnapshotPersistence:
    def test_round_trip(self, tmp_path):
        snap = snapshot(result(simulated=1.5, meta={"n": 3}))
        path = str(tmp_path / "BENCH_1.json")
        snap.dump(path)
        loaded = load_snapshot(path)
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.result("micro.x").simulated_seconds == 1.5
        assert loaded.result("micro.x").meta == {"n": 3}

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps({"schema_version": 999, "results": []}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(str(path))

    def test_find_and_next_are_ordered_and_fresh(self, tmp_path):
        for n in (2, 10, 1):
            (tmp_path / f"BENCH_{n}.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored: not numbered
        found = find_snapshots(str(tmp_path))
        assert [n for n, _ in found] == [1, 2, 10]
        assert next_snapshot_path(str(tmp_path)).endswith("BENCH_11.json")

    def test_next_in_empty_dir_is_one(self, tmp_path):
        assert next_snapshot_path(str(tmp_path)).endswith("BENCH_1.json")


class TestComparisonGate:
    def test_within_threshold_ok(self):
        cmp_ = compare_snapshots(snapshot(result(throughput=80.0)),
                                 snapshot(result(throughput=100.0)),
                                 threshold=1.5)
        assert cmp_.ok
        assert not cmp_.regressions

    def test_regression_beyond_threshold_flagged(self):
        cmp_ = compare_snapshots(snapshot(result(throughput=50.0)),
                                 snapshot(result(throughput=100.0)),
                                 threshold=1.5)
        assert not cmp_.ok
        assert [c.id for c in cmp_.regressions] == ["micro.x"]
        assert cmp_.cases[0].ratio == pytest.approx(0.5)

    def test_improvement_reported(self):
        cmp_ = compare_snapshots(snapshot(result(throughput=150.0)),
                                 snapshot(result(throughput=100.0)),
                                 threshold=1.5)
        assert cmp_.ok
        assert cmp_.best_improvement.ratio == pytest.approx(1.5)

    def test_simulated_drift_fails_even_when_faster(self):
        cmp_ = compare_snapshots(
            snapshot(result(throughput=500.0, simulated=1.0001)),
            snapshot(result(throughput=100.0, simulated=1.0)),
            threshold=1.5,
        )
        assert not cmp_.ok
        assert [c.id for c in cmp_.drifted] == ["micro.x"]

    def test_simulated_float_noise_tolerated_on_residue_baselines(self):
        # a residue-carrying baseline (cost-model output, not on the
        # microsecond grid) tolerates sub-rtol float noise
        base = 1.0000000000004157
        cmp_ = compare_snapshots(
            snapshot(result(simulated=base + 1e-12)),
            snapshot(result(simulated=base)),
            threshold=1.5,
        )
        assert cmp_.ok

    def test_aligned_baseline_requires_exact_equality(self):
        # 10000.000001 is within 1e-9 relative of 10000.0, but both are
        # exact microsecond instants: the tick clock renders those
        # bit-exactly, so any difference is real drift
        cmp_ = compare_snapshots(
            snapshot(result(simulated=10000.000001)),
            snapshot(result(simulated=10000.0)),
            threshold=1.5,
        )
        assert not cmp_.ok
        assert [c.id for c in cmp_.drifted] == ["micro.x"]

    def test_aligned_baseline_flags_reintroduced_residue(self):
        # the historical condition_wait drift: 0.0199999... vs an exact
        # 0.02 baseline passes rtol but must flag now
        cmp_ = compare_snapshots(
            snapshot(result(simulated=0.019999999999999348)),
            snapshot(result(simulated=0.02)),
            threshold=1.5,
        )
        assert not cmp_.ok
        assert [c.id for c in cmp_.drifted] == ["micro.x"]

    def test_aligned_baseline_exact_match_passes(self):
        cmp_ = compare_snapshots(
            snapshot(result(simulated=0.02)),
            snapshot(result(simulated=0.02)),
            threshold=1.5,
        )
        assert cmp_.ok

    def test_unmatched_cases_are_informational(self):
        cmp_ = compare_snapshots(
            snapshot(result("micro.new")),
            snapshot(result("micro.gone")),
            threshold=1.5,
        )
        assert cmp_.ok
        assert sorted(cmp_.unmatched) == ["micro.gone", "micro.new"]

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            compare_snapshots(snapshot(), snapshot(), threshold=1.0)


class TestBenchCli:
    def test_smoke_micro_run_persists_and_gates(self, tmp_path, capsys):
        from repro.harness.bench_cli import bench_main

        code = bench_main([
            "--smoke", "--repeats", "1", "--warmup", "0",
            "--baseline", "none", "--dir", str(tmp_path),
        ])
        assert code == 0
        snap_path = tmp_path / "BENCH_1.json"
        assert snap_path.exists()
        snap = load_snapshot(str(snap_path))
        assert snap.schema_version == SCHEMA_VERSION
        assert {r.kind for r in snap.results} == {"micro"}
        # smoke cases carry a distinct id so they never gate against a
        # full-size baseline (different n, different simulated seconds)
        assert "micro.event_churn.smoke" in {r.id for r in snap.results}

        # second run auto-gates against BENCH_1 and writes BENCH_2
        code = bench_main([
            "--smoke", "--repeats", "1", "--warmup", "0",
            "--threshold", "1000", "--dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "BENCH_2.json").exists()
        out = capsys.readouterr().out
        assert "baseline" in out

    def test_regression_exits_nonzero(self, tmp_path):
        from repro.harness.bench_cli import bench_main

        inflated = snapshot(
            result("micro.event_churn.smoke", throughput=1e15)
        )
        baseline_path = tmp_path / "BENCH_5.json"
        inflated.dump(str(baseline_path))
        code = bench_main([
            "--smoke", "--repeats", "1", "--warmup", "0",
            "--dir", str(tmp_path), "--no-persist",
            "--baseline", str(baseline_path), "--threshold", "1.01",
        ])
        assert code == 1

    @pytest.mark.parametrize("args,reason", [
        (["--repeats", "0"], "--repeats: must be >= 1, got 0"),
        (["--warmup", "-1"], "--warmup: must be >= 0, got -1"),
        (["--threshold", "1.0"], "--threshold: must be > 1.0, got 1.0"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, capsys, tmp_path,
                                                 args, reason):
        """Exit status 2 with the bound, before any case runs: not a
        traceback after the run, and not the regression status 1."""
        from repro.harness.bench_cli import bench_main

        with pytest.raises(SystemExit) as exit_info:
            bench_main(["--smoke", "--no-persist", "--dir", str(tmp_path)]
                       + args)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        assert "== bench:" not in captured.out
