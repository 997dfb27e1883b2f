"""Engine/runtime microbenchmarks: the measured hot paths.

Each case isolates one layer the profile says dominates ``harness``
wall time: raw event churn through :class:`~repro.sim.core.Engine`,
process wakeups, the §5.3 condition-wait pattern, the cooperative
subkernel launch path, the host write/read round-trip, the fuzzer's
seeds/second and the closed-loop serve path.  Iteration counts are
pinned (full vs smoke) so snapshots compare like-for-like.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.bench.measure import measure
from repro.bench.snapshot import BenchResult

__all__ = ["MicroCase", "MICRO_BENCHMARKS", "run_micro_benchmarks"]


@dataclass(frozen=True)
class MicroCase:
    """One pinned microbenchmark: ``fn(n)`` does ``n`` units of work."""

    name: str
    unit: str
    full_n: int
    smoke_n: int
    fn: Callable[[int], dict]


# ---------------------------------------------------------------------------
# Engine core
# ---------------------------------------------------------------------------

def _event_churn(n: int) -> dict:
    """Schedule and drain ``n`` events through the engine queue."""
    from repro.sim.core import Engine

    engine = Engine()
    timeout = engine.timeout
    for i in range(n):
        # a deterministic spread of delays so the calendar actually reorders
        timeout((i % 13) * 1e-7)
    engine.run()
    return {"work": n, "simulated": engine.now}


def _process_wakeups(n: int) -> dict:
    """One process yielding ``n`` zero-delay timeouts: resume/step churn."""
    from repro.sim.core import Engine

    engine = Engine()

    def worker():
        for _ in range(n):
            yield engine.timeout(0.0)

    engine.process(worker())
    engine.run()
    return {"work": n, "simulated": engine.now}


def _condition_wait(n: int) -> dict:
    """The §5.3 version-wait shape: ``any_of([gate.wait(), gpu_done])``
    against a long-lived event, ``n`` iterations.

    This is exactly the loop :class:`~repro.core.scheduler.CpuScheduler`
    runs while CPU copies catch up; it is also the callback-leak
    regression surface (stale callbacks accumulating on ``gpu_done``).
    """
    from repro.sim.core import Engine
    from repro.sim.sync import Gate

    engine = Engine()
    gpu_done = engine.event("gpu_done")
    gate = Gate(engine, name="cpuver")

    def firer():
        for i in range(n):
            yield engine.timeout(1e-6)
            gate.fire(i)

    def waiter():
        for _ in range(n):
            yield engine.any_of([gate.wait(), gpu_done])

    engine.process(firer())
    engine.process(waiter())
    engine.run()
    stale = len(gpu_done.callbacks) if gpu_done.callbacks is not None else 0
    return {"work": n, "simulated": engine.now,
            "meta": {"stale_callbacks": stale}}


# ---------------------------------------------------------------------------
# Cooperative runtime
# ---------------------------------------------------------------------------

#: app inputs reused across bench repeats.  ``fresh_inputs`` is seeded, so
#: every repeat would regenerate the identical arrays anyway; caching keeps
#: RNG time (which dwarfed the runtime under measurement) out of the
#: measured span without changing any simulated result.
_INPUT_CACHE: Dict[tuple, dict] = {}


def _cached_inputs(app) -> dict:
    key = (app.name, app.input_size_label, app.seed)
    inputs = _INPUT_CACHE.get(key)
    if inputs is None:
        inputs = _INPUT_CACHE[key] = app.fresh_inputs()
    return inputs


def _subkernel_launch_rate(n: int, preset: str = "default") -> dict:
    """One cooperative kernel tuned for many small CPU subkernels.

    ``n`` is the problem size; a 2% non-growing chunk makes the CPU
    scheduler launch ~tens of subkernels, exercising the per-launch
    variant/kernel construction, queue traffic and status shipping.  On
    an N-device ``preset`` it also exercises the worker schedulers
    claiming off the shared front ledger, per-front landing buffers and
    pairwise merges.
    """
    from repro.core.config import FluidiCLConfig
    from repro.core.runtime import FluidiCLRuntime
    from repro.harness.runner import measure_app
    from repro.polybench.suite import make_app

    config = FluidiCLConfig(initial_chunk_fraction=0.02,
                            chunk_step_fraction=0.0)
    app = make_app("gesummv", "test", size=n)
    result, runtime, _machine = measure_app(
        app, lambda m: FluidiCLRuntime(m, config=config), machine=preset,
        inputs=_cached_inputs(app), check=False,
    )
    launched = runtime.stats.extra["subkernels_launched"]
    return {"work": launched, "simulated": result.elapsed,
            "meta": {"size": n, "subkernels": launched}}


def _host_roundtrip(n: int) -> dict:
    """``n`` host write+read round-trips through the dual-device buffers.

    Exercises ``enqueue_write_buffer`` (host snapshot + two transfers),
    the CPU-copy quiesce path and the location-tracking read fast path.
    """
    from repro.core.runtime import FluidiCLRuntime
    from repro.hw.machine import build_machine

    machine = build_machine()
    runtime = FluidiCLRuntime(machine)
    size = 4096
    fbuf = runtime.create_buffer("x", (size,), np.float32)
    src = np.arange(size, dtype=np.float32)
    dst = np.empty(size, dtype=np.float32)
    for _ in range(n):
        runtime.enqueue_write_buffer(fbuf, src)
        runtime.enqueue_read_buffer(fbuf, dst)
    runtime.finish()
    return {"work": 2 * n, "simulated": machine.now,
            "meta": {"buffer_bytes": int(fbuf.nbytes)}}


def _fuzzer_seeds(n: int) -> dict:
    """``n`` schedule-space fuzzer seeds end to end (``repro.check``)."""
    from repro.check.fuzzer import ScheduleFuzzer, run_config

    fuzzer = ScheduleFuzzer()
    outcomes: Dict[str, int] = {}
    simulated = 0.0
    for seed in range(n):
        result = run_config(fuzzer.config(seed))
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        simulated += result.elapsed
        if result.violations:
            raise AssertionError(
                f"bench fuzzer seed {seed} found violations: "
                f"{result.violations}"
            )
    return {"work": n, "simulated": simulated, "meta": {"outcomes": outcomes}}


def _serve_p99_closed_loop(n: int) -> dict:
    """``n`` closed-loop requests; the tail-latency reporting path.

    Exercises the client think-time loop, per-tenant exact latency
    ledgers and the percentile computation over them; the meta records
    the worst per-tenant p99 so snapshot diffs surface tail shifts.
    """
    from repro.serve.run import ServeConfig, run_serve

    report = run_serve(ServeConfig(seed=0, requests=n, arrival="closed",
                                   clients=8))
    if report.violations:
        raise AssertionError(
            f"bench serve run found violations: "
            f"{[str(v) for v in report.violations]}"
        )
    worst_p99 = max(row["p99_ms"] for row in report.tenants.values())
    return {"work": n, "simulated": report.simulated_seconds,
            "meta": {"worst_p99_ms": worst_p99, "digest": report.digest}}


MICRO_BENCHMARKS = (
    MicroCase("event_churn", "events/s", 200_000, 20_000, _event_churn),
    MicroCase("process_wakeups", "wakeups/s", 50_000, 5_000, _process_wakeups),
    MicroCase("condition_wait", "waits/s", 20_000, 2_000, _condition_wait),
    MicroCase("subkernel_launch", "subkernels/s", 1024, 256,
              _subkernel_launch_rate),
    MicroCase("subkernel_launch.3dev", "subkernels/s", 1024, 256,
              functools.partial(_subkernel_launch_rate, preset="cpu+2gpu")),
    MicroCase("host_roundtrip", "ops/s", 300, 50, _host_roundtrip),
    MicroCase("fuzzer_seeds", "seeds/s", 6, 2, _fuzzer_seeds),
    MicroCase("serve_p99.closed_loop", "jobs/s", 2_000, 300,
              _serve_p99_closed_loop),
)


def run_micro_benchmarks(smoke: bool = False, repeats: int = 3,
                         warmup: int = 1) -> List[BenchResult]:
    """Measure every microbenchmark; see :mod:`repro.bench`."""
    results: List[BenchResult] = []
    for case in MICRO_BENCHMARKS:
        n = case.smoke_n if smoke else case.full_n
        # Smoke cases carry a distinct id: their simulated seconds and
        # throughput are functions of n, so a smoke run must never be
        # gated against a full-size baseline (or vice versa).
        case_id = f"micro.{case.name}.smoke" if smoke else f"micro.{case.name}"
        timing = measure(lambda case=case, n=n: case.fn(n),
                         repeats=repeats, warmup=warmup)
        info = timing.last_result
        work = info["work"]
        results.append(BenchResult(
            id=case_id,
            kind="micro",
            unit=case.unit,
            throughput=work / timing.best if timing.best > 0 else float("inf"),
            wall_seconds=timing.best,
            wall_mean_seconds=timing.mean,
            spread=timing.spread,
            repeats=len(timing.runs),
            simulated_seconds=info.get("simulated"),
            meta={"n": n, "work": work, **info.get("meta", {})},
        ))
    return results
