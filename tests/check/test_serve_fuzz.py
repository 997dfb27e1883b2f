"""Tests for the fuzzer's serving axis (--serve) and its shrinker hooks."""

from dataclasses import replace

from repro.check import FuzzConfig, reproducer_source, run_config, shrink
from repro.check.fuzzer import CheckResult, ScheduleFuzzer
from repro.check.monitor import Violation
from repro.serve.run import ServeConfig


def stub_runner(predicate):
    calls = []

    def run(config):
        calls.append(config)
        failing = predicate(config)
        return CheckResult(
            config=config,
            outcome="ok",
            violations=[Violation("stub", "stub failure", 0.0)] if failing
            else [],
            correct=not failing,
        )

    run.calls = calls
    return run


def noisy_serve_config(**overrides):
    serve = ServeConfig(
        seed=3, requests=160, arrival="burst", machine="cpu+2gpu",
        n_tenants=3, max_inflight=4, fault_seed=5, jitter_seed=77,
    )
    return FuzzConfig(seed=3, serve=replace(serve, **overrides))


class TestServeAxis:
    def test_classic_axes_never_draw_serve(self):
        fuzzer = ScheduleFuzzer()
        assert all(fuzzer.config(seed).serve is None for seed in range(6))

    def test_serve_config_is_deterministic(self):
        first = ScheduleFuzzer(serve=True).config(4)
        second = ScheduleFuzzer(serve=True).config(4)
        assert first == second
        assert first.serve is not None

    def test_serve_draws_cover_the_axes(self):
        configs = [ScheduleFuzzer(serve=True).config(s).serve
                   for s in range(12)]
        assert {c.arrival for c in configs} \
            == {"poisson", "burst", "closed"}
        assert any(c.fault_seed is not None for c in configs)
        assert any(c.jitter_seed is not None for c in configs)
        assert any(c.utilization > 1.0 for c in configs)  # overload included

    def test_describe_mentions_the_serve_shape(self):
        config = ScheduleFuzzer(serve=True).config(0)
        described = config.describe()
        assert "serve" in described
        assert config.serve.arrival in described

    def test_run_config_serve_path_is_clean(self):
        config = ScheduleFuzzer(serve=True).config(0)
        result = run_config(config)
        assert result.outcome == "ok"
        assert not result.failed, result.violations
        assert result.checks > 0

    def test_serve_seed_counts_its_events(self):
        """A serve run keeps no events in memory, yet its seed reports
        how many it recorded."""
        result = run_config(ScheduleFuzzer(serve=True).config(0))
        assert result.events > 0
        assert "events=0 " not in result.summary()

    def test_summary_labels_serve_runs(self):
        config = ScheduleFuzzer(serve=True).config(0)
        result = CheckResult(config=config, outcome="ok", correct=True)
        assert "serve" in result.summary()


class TestServeShrinking:
    def test_config_independent_failure_reduces_to_defaults(self):
        shrunk = shrink(noisy_serve_config(),
                        run_fn=stub_runner(lambda c: True))
        minimal = shrunk.minimal.serve
        assert shrunk.reduced
        assert minimal.fault_seed is None
        assert minimal.jitter_seed is None
        assert minimal.machine == "default"
        assert minimal.arrival == "poisson"
        assert minimal.n_tenants == 1
        assert minimal.max_inflight == 1
        assert minimal.requests <= 40

    def test_essential_axis_is_kept(self):
        def needs_burst(config):
            return config.serve is not None and config.serve.arrival == "burst"

        shrunk = shrink(noisy_serve_config(),
                        run_fn=stub_runner(needs_burst))
        assert shrunk.minimal.serve.arrival == "burst"
        assert shrunk.minimal.serve.fault_seed is None  # noise still dropped

    def test_reproducer_renders_serve_config(self):
        shrunk = shrink(noisy_serve_config(),
                        run_fn=stub_runner(lambda c: True))
        source = reproducer_source(shrunk)
        assert "ServeConfig" in source
        assert "serve=ServeConfig(" in source
        compile(source, "<reproducer>", "exec")
        # non-default fields only: the fully-shrunk serve literal carries
        # no arrival/machine/fault clutter
        assert "arrival=" not in source
        assert "fault_seed=" not in source
