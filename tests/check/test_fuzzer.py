"""Tests for the schedule-space fuzzer: determinism, coverage, checking."""

import pytest

from repro.check import (
    CORRUPTION_KINDS,
    FuzzConfig,
    ScheduleFuzzer,
    run_config,
)
from repro.polybench.suite import EXTENDED_SUITE


class TestDeterminism:
    def test_same_seed_same_config(self):
        fuzzer = ScheduleFuzzer()
        assert fuzzer.config(17) == fuzzer.config(17)

    def test_different_seeds_differ(self):
        fuzzer = ScheduleFuzzer()
        configs = fuzzer.configs(8)
        assert len(set(configs)) == 8

    def test_same_config_same_run(self):
        config = ScheduleFuzzer(faults=False).config(3)
        first = run_config(config)
        second = run_config(config)
        assert first.elapsed == second.elapsed
        assert first.events == second.events
        assert first.outcome == second.outcome

    def test_jitter_is_part_of_the_seed(self):
        fuzzer = ScheduleFuzzer()
        jittered = [s for s in range(16)
                    if fuzzer.config(s).jitter_seed is not None]
        assert jittered, "no seed drew jitter in 16 tries"
        config = fuzzer.config(jittered[0])
        assert run_config(config).elapsed == run_config(config).elapsed


class TestDraws:
    def test_round_robin_covers_every_app(self):
        fuzzer = ScheduleFuzzer()
        drawn = {c.app for c in fuzzer.configs(len(EXTENDED_SUITE))}
        assert drawn == set(EXTENDED_SUITE)

    def test_app_subset_respected(self):
        fuzzer = ScheduleFuzzer(apps=("gesummv", "bicg"))
        assert {c.app for c in fuzzer.configs(10)} == {"gesummv", "bicg"}

    def test_no_faults_flag(self):
        fuzzer = ScheduleFuzzer(faults=False)
        assert all(not c.faults for c in fuzzer.configs(16))

    def test_no_jitter_flag(self):
        fuzzer = ScheduleFuzzer(jitter=False)
        assert all(c.jitter_seed is None for c in fuzzer.configs(16))

    def test_sizes_are_valid_for_the_apps(self):
        fuzzer = ScheduleFuzzer()
        for config in fuzzer.configs(20):
            assert config.size % 32 == 0
            assert config.size >= 64

    def test_fuzzer_never_draws_corruption(self):
        fuzzer = ScheduleFuzzer()
        assert all(c.corruption is None for c in fuzzer.configs(20))

    def test_describe_mentions_the_app(self):
        config = ScheduleFuzzer().config(0)
        assert config.app in config.describe()


class TestRunConfig:
    def test_clean_run_has_no_violations(self):
        result = run_config(FuzzConfig(seed=0, app="gesummv", size=128))
        assert result.outcome == "ok"
        assert result.violations == []
        assert result.correct is True
        assert result.checks > 0
        assert result.events > 0
        assert not result.failed

    def test_multi_kernel_app_clean(self):
        result = run_config(FuzzConfig(seed=0, app="2mm", size=64))
        assert result.outcome == "ok"
        assert result.violations == []
        assert result.correct is True

    def test_commit_waits_for_its_merges_under_jitter(self):
        """Shrunk from default seed 43: the marker behind the last merge
        ends in the same instant as that merge, and the jitter processed
        it first, so ``commit`` was traced before ``merge_done``."""
        result = run_config(FuzzConfig(seed=43, app="bicg", size=128,
                                       gpu_scale=0.367,
                                       jitter_seed=1976765125))
        assert result.outcome == "ok"
        assert result.violations == []
        assert result.correct is True

    def test_device_loss_is_an_accepted_outcome(self):
        from repro.faults import FaultKind, FaultSpec
        config = FuzzConfig(
            seed=0, app="gesummv", size=128,
            faults=(FaultSpec(FaultKind.DEVICE_LOSS, at=0.0, device="gpu"),
                    FaultSpec(FaultKind.DEVICE_LOSS, at=1e-5, device="cpu")),
        )
        result = run_config(config)
        assert result.outcome == "device-lost"
        assert not result.violations

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_known_bad_corruption_is_caught(self, kind):
        config = FuzzConfig(seed=0, app="gesummv", size=64, corruption=kind)
        result = run_config(config)
        assert result.failed
        assert result.violations, f"corruption {kind} went undetected"

    def test_corruption_maps_to_expected_invariant(self):
        # overlap-window breaks both the per-event descent check and the
        # end-of-kernel partition accounting (invariant #10)
        expected = {
            "overlap-window": {"cpu-front-partition", "front-partition"},
            "stale-read": {"stale-read"},
            "frontier-jump": {"frontier-monotonicity"},
        }
        for kind, invariants in expected.items():
            result = run_config(
                FuzzConfig(seed=0, app="gesummv", size=64, corruption=kind))
            assert {v.invariant for v in result.violations} == invariants

    def test_unknown_corruption_rejected(self):
        config = FuzzConfig(seed=0, corruption="flip-bits")
        with pytest.raises(ValueError, match="unknown corruption"):
            run_config(config)

    def test_summary_is_one_line(self):
        result = run_config(FuzzConfig(seed=0, app="gesummv", size=64))
        assert "\n" not in result.summary()
        assert "gesummv" in result.summary()


class TestFuzzSweep:
    """A miniature in-suite campaign over every app (the tier-1 anchor)."""

    @pytest.mark.parametrize("seed", range(len(EXTENDED_SUITE)))
    def test_seed_sweep_holds_invariants(self, seed):
        result = run_config(ScheduleFuzzer().config(seed))
        assert result.outcome in ("ok", "device-lost"), result.error
        assert result.violations == [], "\n".join(
            str(v) for v in result.violations)
        if result.outcome == "ok":
            assert result.correct is True


class TestMachineAxis:
    """The ``machines`` round-robin axis (N-device presets)."""

    def test_default_axis_leaves_configs_unchanged(self):
        plain = ScheduleFuzzer()
        with_axis = ScheduleFuzzer(machines=("default",))
        assert plain.configs(8) == with_axis.configs(8)

    def test_machines_round_robin_over_seeds(self):
        fuzzer = ScheduleFuzzer(machines=("default", "cpu+2gpu"))
        drawn = [fuzzer.config(seed).machine for seed in range(4)]
        assert drawn == ["default", "cpu+2gpu", "default", "cpu+2gpu"]

    def test_machine_axis_consumes_no_rng_draws(self):
        """Routing a seed to a preset must not perturb the rest of its
        draw — otherwise the pinned default-machine seeds would drift."""
        from dataclasses import replace

        plain = ScheduleFuzzer().config(5)
        routed = ScheduleFuzzer(machines=("cpu+2gpu",)).config(5)
        assert replace(routed, machine="default") == plain

    def test_describe_mentions_nondefault_machine(self):
        config = ScheduleFuzzer(machines=("cpu+2gpu",)).config(0)
        assert "machine=cpu+2gpu" in config.describe()

    @pytest.mark.parametrize("seed", range(6))
    def test_ndevice_seed_sweep_holds_invariants(self, seed):
        result = run_config(ScheduleFuzzer(machines=("cpu+2gpu",)).config(seed))
        assert result.outcome in ("ok", "device-lost", "lint-rejected"), \
            result.error
        assert result.violations == [], "\n".join(
            str(v) for v in result.violations)
        if result.outcome == "ok":
            assert result.correct is True

    @pytest.mark.parametrize("preset", ["big.little", "cpu+3gpu"])
    def test_other_presets_run_clean(self, preset):
        result = run_config(ScheduleFuzzer(machines=(preset,),
                                           faults=False).config(0))
        assert result.outcome in ("ok", "lint-rejected"), result.error
        assert result.violations == []
        if result.outcome == "ok":
            assert result.correct is True
