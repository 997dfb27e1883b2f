"""Tests for the greedy shrinker and the pytest reproducer emitter."""

import ast
from dataclasses import replace

from repro.check import FuzzConfig, reproducer_source, run_config, shrink
from repro.check.fuzzer import CheckResult, ScheduleFuzzer
from repro.check.monitor import Violation
from repro.core.config import FluidiCLConfig
from repro.faults import FaultKind, FaultSpec
from repro.serve.run import ServeConfig


def stub_runner(predicate):
    """A fake run_config failing exactly when ``predicate(config)`` holds."""
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


def noisy_config(**overrides):
    base = FuzzConfig(
        seed=9, app="3mm", size=128, gpu_scale=0.5, cpu_scale=2.0,
        runtime=FluidiCLConfig(initial_chunk_fraction=0.3,
                               chunk_step_fraction=0.25, loop_unroll=False),
        jitter_seed=1234,
        faults=(FaultSpec(FaultKind.DEVICE_STALL, at=1e-4, duration=1e-4),
                FaultSpec(FaultKind.LINK_DEGRADE, at=2e-4, factor=0.5)),
        corruption="stale-read",
    )
    return replace(base, **overrides)


class TestShrinking:
    def test_config_independent_failure_reduces_to_defaults(self):
        run = stub_runner(lambda c: c.corruption is not None)
        runtime = replace(noisy_config().runtime, use_buffer_pool=False,
                          online_profiling=True)
        shrunk = shrink(noisy_config(runtime=runtime), run_fn=run)
        minimal = shrunk.minimal
        assert shrunk.reduced
        assert minimal.faults == ()
        assert minimal.jitter_seed is None
        assert minimal.gpu_scale == minimal.cpu_scale == 1.0
        assert minimal.runtime == FluidiCLConfig()
        assert minimal.app == "gesummv"
        assert minimal.size == 64
        assert minimal.corruption == "stale-read"
        assert shrunk.result.failed

    def test_essential_fault_is_kept(self):
        def needs_stall(config):
            return any(f.kind is FaultKind.DEVICE_STALL for f in config.faults)

        shrunk = shrink(noisy_config(corruption=None), run_fn=stub_runner(needs_stall))
        kinds = [f.kind for f in shrunk.minimal.faults]
        assert kinds == [FaultKind.DEVICE_STALL]

    def test_non_failing_config_is_returned_unshrunken(self):
        run = stub_runner(lambda c: False)
        shrunk = shrink(noisy_config(), run_fn=run)
        assert not shrunk.reduced
        assert shrunk.steps == ["original does not fail"]

    def test_run_budget_is_respected(self):
        run = stub_runner(lambda c: True)
        shrunk = shrink(noisy_config(), run_fn=run, max_runs=3)
        assert shrunk.runs <= 3

    def test_baseline_avoids_rerunning_the_original(self):
        run = stub_runner(lambda c: c.corruption is not None)
        baseline = run(noisy_config())
        run.calls.clear()
        shrink(noisy_config(), run_fn=run, baseline=baseline)
        assert noisy_config() not in run.calls

    def test_steps_describe_each_reduction(self):
        run = stub_runner(lambda c: c.corruption is not None)
        shrunk = shrink(noisy_config(), run_fn=run)
        assert any("jitter" in s for s in shrunk.steps)
        assert any("fault" in s for s in shrunk.steps)


class TestReproducerEmission:
    def shrunk(self):
        run = stub_runner(lambda c: c.corruption is not None)
        return shrink(noisy_config(), run_fn=run)

    def test_source_is_valid_python(self):
        source = reproducer_source(self.shrunk())
        compile(source, "<reproducer>", "exec")

    def test_source_reconstructs_the_minimal_config(self):
        """The emitted config, evaluated under the reproducer's own
        imports, equals the minimal config: for a corrupted kernel draw,
        for one that keeps a non-default runtime record and a fault, and
        for a serve draw."""
        def needs_stall_without_unroll(config):
            return (not config.runtime.loop_unroll and any(
                f.kind is FaultKind.DEVICE_STALL for f in config.faults))

        serve = FuzzConfig(seed=3, serve=ServeConfig(
            seed=3, requests=160, arrival="burst", machine="cpu+2gpu",
            n_tenants=3, fault_seed=5, jitter_seed=77))
        cases = [
            (noisy_config(), lambda c: c.corruption is not None),
            (noisy_config(corruption=None), needs_stall_without_unroll),
            (serve, lambda c: c.serve.arrival == "burst"),
        ]
        for config, predicate in cases:
            shrunk = shrink(config, run_fn=stub_runner(predicate))
            source = reproducer_source(shrunk)
            namespace = {}
            exec(compile(source, "<reproducer>", "exec"), namespace)
            assert len([k for k in namespace if k.startswith("test_")]) == 1
            assign = next(node for node in ast.walk(ast.parse(source))
                          if isinstance(node, ast.Assign)
                          and node.targets[0].id == "config")
            rebuilt = eval(ast.get_source_segment(source, assign.value),
                           namespace)
            assert rebuilt == shrunk.minimal, source

    def test_source_documents_the_failure_and_steps(self):
        shrunk = self.shrunk()
        source = reproducer_source(shrunk)
        assert "stub failure" in source
        assert "disable interleave jitter" in source

    def test_fault_schedule_survives_round_trip(self):
        def needs_stall(config):
            return any(f.kind is FaultKind.DEVICE_STALL for f in config.faults)

        shrunk = shrink(noisy_config(corruption=None),
                        run_fn=stub_runner(needs_stall))
        source = reproducer_source(shrunk)
        assert "FaultSpec(kind=FaultKind.DEVICE_STALL" in source
        assert "from repro.faults import FaultKind, FaultSpec" in source
        compile(source, "<reproducer>", "exec")


class TestEndToEnd:
    def test_corrupted_run_shrinks_to_minimal_failing_reproducer(self):
        """The acceptance path: a known-bad config is caught, shrunk and
        reported, and the minimal config still fails for the same reason."""
        config = replace(ScheduleFuzzer().config(3), corruption="stale-read")
        baseline = run_config(config)
        assert baseline.failed
        shrunk = shrink(config, baseline=baseline)
        assert shrunk.minimal.corruption == "stale-read"
        assert shrunk.result.failed
        assert {v.invariant for v in shrunk.result.violations} == {"stale-read"}
        source = reproducer_source(shrunk)
        compile(source, "<reproducer>", "exec")
        assert "stale-read" in source


class TestMachineReduction:
    def test_machine_independent_failure_swaps_back_to_default(self):
        run = stub_runner(lambda c: c.corruption is not None)
        shrunk = shrink(noisy_config(machine="cpu+2gpu"), run_fn=run)
        assert shrunk.minimal.machine == "default"
        assert any("swap machine" in step for step in shrunk.steps)

    def test_machine_essential_failure_keeps_the_preset(self):
        run = stub_runner(lambda c: c.machine == "cpu+2gpu")
        shrunk = shrink(noisy_config(machine="cpu+2gpu"), run_fn=run)
        assert shrunk.minimal.machine == "cpu+2gpu"
