"""The pinned app matrix: polybench × machine configs × opt toggles.

Every case runs one full cooperative application under FluidiCL on a
fresh simulated machine and records *both* clocks: the simulated seconds
(and the speedup over the best single device — the paper's metric, which
wall-clock optimization must never change) and the host wall seconds it
took to simulate the run.

The matrix is deliberately small and pinned — snapshots only compare
like-for-like, so adding a case later is fine, but renaming or resizing
one orphans its history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bench.measure import measure
from repro.bench.snapshot import BenchResult

__all__ = ["AppCase", "APP_MATRIX", "SMOKE_MATRIX", "run_app_matrix"]


@dataclass(frozen=True)
class AppCase:
    """One pinned (app, scale, machine, config) combination."""

    app: str
    scale: str
    machine: str  # "default" | "half-gpu" | "cpu+2gpu"
    config: str   # "default" | "no_abort" | "no_pool"

    @property
    def id(self) -> str:
        return f"app.{self.app}.{self.scale}.{self.machine}.{self.config}"

    def device_set(self):
        """The run entry point's ``machine``: the preset of that name, or
        for ``half-gpu`` the default pair with its GPU at half rate."""
        from repro.hw.machine import MACHINE_PRESETS

        if self.machine == "half-gpu":
            (gpu, gpu_link), cpu = MACHINE_PRESETS["default"]
            return [(gpu.scaled(0.5), gpu_link), cpu]
        return self.machine

    def build_config(self):
        from repro.core.config import FluidiCLConfig

        if self.config == "default":
            return FluidiCLConfig()
        if self.config == "no_abort":
            return FluidiCLConfig.no_abort_in_loops()
        if self.config == "no_pool":
            return FluidiCLConfig(use_buffer_pool=False)
        raise ValueError(f"unknown config preset {self.config!r}")


#: the full matrix: cpu-favored (gesummv), mixed (bicg) and gpu-favored
#: (syrk) apps; the Fig. 15 ablation toggle; the §6.1 pool toggle; a
#: slower-GPU machine that shifts more work to the CPU scheduler; and a
#: three-device ``cpu+2gpu`` set exercising the N-way front ledger
APP_MATRIX = (
    AppCase("gesummv", "small", "default", "default"),
    AppCase("bicg", "small", "default", "default"),
    AppCase("syrk", "small", "default", "default"),
    AppCase("gesummv", "small", "default", "no_abort"),
    AppCase("syrk", "small", "default", "no_abort"),
    AppCase("syrk", "small", "default", "no_pool"),
    AppCase("gesummv", "small", "half-gpu", "default"),
    AppCase("syrk", "small", "half-gpu", "default"),
    AppCase("gesummv", "small", "cpu+2gpu", "default"),
)

#: CI smoke: one cpu-favored and one gpu-favored app at test scale, plus
#: one N-device preset
SMOKE_MATRIX = (
    AppCase("gesummv", "test", "default", "default"),
    AppCase("syrk", "test", "default", "default"),
    AppCase("gesummv", "test", "cpu+2gpu", "default"),
)


def run_app_matrix(smoke: bool = False, repeats: int = 3, warmup: int = 1,
                   apps: Optional[List[str]] = None) -> List[BenchResult]:
    """Measure every (selected) matrix case; see :mod:`repro.bench`."""
    from repro.core.runtime import FluidiCLRuntime
    from repro.harness.runner import measure_app, single_device_times
    from repro.polybench.suite import make_app

    matrix = SMOKE_MATRIX if smoke else APP_MATRIX
    results: List[BenchResult] = []
    for case in matrix:
        if apps is not None and case.app not in apps:
            continue
        app = make_app(case.app, case.scale)
        # one fixed input set per case: identical work in every repeat
        inputs = app.fresh_inputs()

        def run_once(case=case, app=app, inputs=inputs):
            result, runtime, _machine = measure_app(
                app, lambda m: FluidiCLRuntime(m, config=case.build_config()),
                machine=case.device_set(), inputs=inputs, check=False,
            )
            return {
                "elapsed": result.elapsed,
                "kernels": runtime.stats.kernels_enqueued,
                "subkernels": runtime.stats.extra["subkernels_launched"],
                "merges": runtime.stats.extra["merges"],
            }

        timing = measure(run_once, repeats=repeats, warmup=warmup)
        info = timing.last_result

        # Simulated speedup over the best single device (paper metric).
        # Computed on the same machine preset and inputs, outside the
        # timed region — it is context, not the thing being measured.
        single = single_device_times(app, inputs=inputs, check=False,
                                     machine=case.device_set())
        best_single = min(single.values())
        speedup = best_single / info["elapsed"] if info["elapsed"] else 0.0

        results.append(BenchResult(
            id=case.id,
            kind="app",
            unit="runs/s",
            throughput=1.0 / timing.best if timing.best > 0 else float("inf"),
            wall_seconds=timing.best,
            wall_mean_seconds=timing.mean,
            spread=timing.spread,
            repeats=len(timing.runs),
            simulated_seconds=info["elapsed"],
            meta={
                "kernels": info["kernels"],
                "subkernels": info["subkernels"],
                "merges": info["merges"],
                "simulated_cpu_only": single["cpu"],
                "simulated_gpu_only": single["gpu"],
                "simulated_speedup_vs_best_single": speedup,
            },
        ))
    return results
