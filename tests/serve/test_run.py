"""End-to-end serving scenarios: ServeConfig -> run_serve -> ServeReport."""

import json

import pytest

from repro.serve.run import ServeConfig, run_serve
from repro.serve.workload import TenantSpec


def small(**overrides):
    """A cheap scenario: one profiled app, small budget."""
    base = dict(seed=0, requests=60, n_tenants=2)
    base.update(overrides)
    return ServeConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(requests=0)
        with pytest.raises(ValueError):
            ServeConfig(arrival="uniform")
        with pytest.raises(ValueError):
            ServeConfig(utilization=0.0)
        with pytest.raises(ValueError, match="think_time"):
            ServeConfig(arrival="closed", think_time=-1.0)
        with pytest.raises(ValueError, match="fault_n"):
            ServeConfig(fault_seed=3, fault_n=-2)
        with pytest.raises(ValueError, match="fault_n"):
            ServeConfig(fault_seed=3, fault_n=0)
        # zero think time is valid, and so is fault_n=0 with no faults
        # armed (what the fuzzer and the shrinker build)
        ServeConfig(arrival="closed", think_time=0.0)
        ServeConfig(fault_seed=None, fault_n=0)

    def test_explicit_tenants_override_the_default_mix(self):
        spec = (TenantSpec("acme", "bicg", 64),)
        assert ServeConfig(tenants=spec).resolve_tenants() == spec

    def test_default_mix_is_seeded(self):
        assert (ServeConfig(seed=4).resolve_tenants()
                == ServeConfig(seed=4).resolve_tenants())


class TestRunServe:
    def test_report_shape_and_conservation(self):
        report = run_serve(small())
        assert set(report.tenants) == {"tenant0", "tenant1"}
        totals = report.totals
        assert totals["submitted"] == 60
        assert totals["admitted"] + totals["shed"] == totals["submitted"]
        assert totals["completed"] + totals["failed"] == totals["admitted"]
        assert report.ok and not report.violations
        assert report.checks > 0
        assert report.simulated_seconds > 0

    def test_same_config_bit_identical(self):
        first = run_serve(small())
        second = run_serve(small())
        assert first.digest == second.digest
        assert first.tenants == second.tenants
        assert first.simulated_seconds == second.simulated_seconds

    def test_different_seed_different_digest(self):
        assert run_serve(small()).digest != run_serve(small(seed=1)).digest

    def test_overload_sheds_but_conserves(self):
        report = run_serve(small(requests=150, utilization=3.0,
                                 max_queue_depth=2, max_inflight=1))
        totals = report.totals
        assert totals["shed"] > 0
        assert totals["admitted"] + totals["shed"] == totals["submitted"]
        assert report.ok
        assert 0.0 < totals["shed_rate"] <= 1.0

    def test_faults_compose(self):
        report = run_serve(small(fault_seed=1, fault_n=2))
        assert report.faults_injected == 2
        assert report.ok

    def test_jitter_seed_keeps_invariants(self):
        assert run_serve(small(jitter_seed=9)).ok

    def test_closed_loop(self):
        report = run_serve(small(arrival="closed", clients=4))
        # closed-loop clients wait for completion: nothing is ever shed
        assert report.totals["shed"] == 0
        assert report.totals["completed"] == 60

    def test_to_json_is_serializable(self):
        report = run_serve(small())
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["ok"] is True
        assert blob["digest"] == report.digest
        assert blob["config"]["requests"] == 60
        assert {t["name"] for t in blob["config"]["tenants"]} \
            == {"tenant0", "tenant1"}

    def test_format_table_mentions_every_tenant(self):
        report = run_serve(small())
        table = report.format_table()
        assert "tenant0" in table and "tenant1" in table
        assert "digest:" in table and "submitted" in table

    def test_trace_path_writes_chrome_trace(self, tmp_path):
        path = tmp_path / "serve.json"
        run_serve(small(requests=20), trace_path=str(path))
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("name") == "job_done" for e in events)


#: report row fields, in ``ServeReport.tenants`` order
_ROW = ("app", "slo", "submitted", "admitted", "shed", "completed", "failed",
        "p50_ms", "p95_ms", "p99_ms", "throughput", "shed_rate",
        "slo_attainment", "max_queue_depth")
_TOTALS = ("submitted", "admitted", "shed", "completed", "failed",
           "shed_rate", "throughput", "slo_attainment")

#: (config, per-tenant rows, totals): one overloaded run whose faults
#: strike (jobs shed, jobs failed, SLOs missed) and one closed-loop run
PINNED = {
    "overload-faults": (
        dict(seed=0, requests=300, n_tenants=3, utilization=1.5,
             max_queue_depth=32, max_inflight=2, fault_seed=2, fault_n=3),
        {
            "tenant0": ("bicg", "interactive", 162.0, 123.0, 39.0, 123.0, 0.0,
                        14.18310297293133, 21.55951677517846,
                        21.918357937194433,
                        1579.1785044294184, 0.24074074074074073,
                        0.7886178861788617, 32.0),
            "tenant1": ("gesummv", "interactive", 62.0, 62.0, 0.0, 42.0, 20.0,
                        5.91745736377692, 11.362726275798295,
                        13.590512992110526,
                        539.2316844393135, 0.0, 1.0, 20.0),
            "tenant2": ("scan", "batch", 76.0, 76.0, 0.0, 76.0, 0.0,
                        19.773688148255683, 32.6488893322403,
                        33.876099522756114,
                        975.7525718425675, 0.0, 1.0, 31.0),
        },
        (300.0, 261.0, 39.0, 241.0, 20.0, 0.13,
         3094.162760711299, 0.8921161825726142),
    ),
    "closed-loop": (
        dict(seed=2, requests=300, n_tenants=3, arrival="closed",
             clients=24, utilization=1.5),
        {
            "tenant0": ("spmv", "batch", 150.0, 150.0, 0.0, 150.0, 0.0,
                        0.9865011355255785, 1.984324752682451,
                        2.8171983541722088,
                        3676.6837621256504, 0.0, 1.0, 12.0),
            "tenant1": ("histogram", "batch", 77.0, 77.0, 0.0, 77.0, 0.0,
                        1.0314353550995463, 2.6543728206823705,
                        2.757723314735638,
                        1887.3643312245006, 0.0, 1.0, 8.0),
            "tenant2": ("atax", "interactive", 73.0, 73.0, 0.0, 73.0, 0.0,
                        1.3104965241425937, 2.8609993825675586,
                        3.2819998789749047,
                        1789.3194309011499, 0.0, 1.0, 8.0),
        },
        (300.0, 300.0, 0.0, 300.0, 0.0, 0.0, 7353.367524251301, 1.0),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_numbers_are_pinned(name):
    """Every per-tenant and total number of the report, exactly: the
    percentiles, throughput, SLO attainment and queue high-water marks."""
    config, rows, totals = PINNED[name]
    report = run_serve(ServeConfig(**config)).to_json()
    if name == "overload-faults":
        assert report["faults_injected"] == 3
    assert report["tenants"] == {
        tenant: dict(zip(_ROW, row)) for tenant, row in rows.items()
    }
    assert report["totals"] == dict(zip(_TOTALS, totals))
