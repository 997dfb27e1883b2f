"""Seeded schedule-space fuzzing of the FluidiCL runtime.

A :class:`ScheduleFuzzer` deterministically expands an integer seed into a
:class:`FuzzConfig` — a frozen, self-describing draw over the schedule
space: device-speed ratios, the runtime's
:class:`~repro.core.config.FluidiCLConfig` (chunker parameters and
optimization toggles), same-instant queue interleaving jitter and a fault
schedule.
:func:`run_config` executes one such configuration end to end on a fresh
simulated machine with a :class:`~repro.check.monitor.CoherenceMonitor`
attached and the NumPy oracle checking the result.

Everything is reproducible: the same seed always draws the same config,
and the same config always produces the same simulated run (the jitter is
itself a seeded tie-break, see ``Engine.set_interleave_jitter``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.analyzer import analyze_app
from repro.analysis.diagnostics import LintReport
from repro.check.monitor import CoherenceMonitor, Violation
from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.faults.injector import install_faults
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.hw.machine import MACHINE_PRESETS, build_machine
from repro.hw.specs import DeviceKind
from repro.obs.events import TraceEvent
from repro.ocl.health import DeviceLostError
from repro.polybench.common import DEFAULT_RTOL
from repro.polybench.suite import EXTENDED_SUITE, SCALES, make_app
from repro.serve.run import ServeConfig, run_serve

__all__ = ["FuzzConfig", "CheckResult", "ScheduleFuzzer", "run_config",
           "preflight_lint", "CORRUPTION_KINDS"]

#: smallest problem size the fuzzer will draw (all apps need multiples of 32)
MIN_SIZE = 64

#: test-only corruptions injectable through :attr:`FuzzConfig.corruption`
CORRUPTION_KINDS = ("overlap-window", "stale-read", "frontier-jump")


@dataclass(frozen=True)
class FuzzConfig:
    """One reproducible point in the schedule space.

    ``corruption`` is a test-only hook: it names a known-bad event
    perturbation (:data:`CORRUPTION_KINDS`) that is replayed into the
    monitor during the run, to validate end to end that the checker
    catches, shrinks and reports real coherence bugs.  It is never drawn
    by the fuzzer.
    """

    seed: int
    app: str = "gesummv"
    size: int = 256
    gpu_scale: float = 1.0
    cpu_scale: float = 1.0
    #: the runtime knobs the seed runs under: chunk sizes (§5.1) and the
    #: §6 optimization toggles
    runtime: FluidiCLConfig = FluidiCLConfig()
    jitter_seed: Optional[int] = None
    faults: Tuple[FaultSpec, ...] = ()
    corruption: Optional[str] = None
    #: machine preset name (:data:`repro.hw.machine.MACHINE_PRESETS`);
    #: ``"default"`` is the paper's CPU+GPU pair, other presets exercise
    #: N-device sets.  GPU-kind devices scale by ``gpu_scale``, CPU-kind
    #: by ``cpu_scale``.  A serve draw keeps its machine in ``serve``.
    machine: str = "default"
    #: serving-layer axis: when set, the seed checks a multi-tenant load
    #: test (:mod:`repro.serve`) instead of a single cooperative run — the
    #: monitor's serve-accounting invariant (#12) is the oracle.  Opt-in
    #: (``ScheduleFuzzer(serve=True)``): the classic axes never draw it,
    #: so historical seeds stay byte-identical.
    serve: Optional[ServeConfig] = None

    def describe(self) -> str:
        if self.serve is not None:
            s = self.serve
            bits = [f"seed={self.seed}", "serve",
                    f"requests={s.requests}", f"arrival={s.arrival}",
                    f"tenants={s.n_tenants}", f"depth={s.max_queue_depth}",
                    f"inflight={s.max_inflight}"]
            if s.machine != "default":
                bits.append(f"machine={s.machine}")
            if s.fault_seed is not None:
                bits.append(f"faults={s.fault_n}@{s.fault_seed}")
            if s.jitter_seed is not None:
                bits.append(f"jitter={s.jitter_seed}")
            return " ".join(bits)
        bits = [f"seed={self.seed}", f"{self.app}@{self.size}",
                f"gpu×{self.gpu_scale:.2f}", f"cpu×{self.cpu_scale:.2f}",
                f"chunk={self.runtime.initial_chunk_fraction:.2f}"
                f"+{self.runtime.chunk_step_fraction:.2f}"]
        if self.machine != "default":
            bits.append(f"machine={self.machine}")
        if self.jitter_seed is not None:
            bits.append(f"jitter={self.jitter_seed}")
        if self.faults:
            bits.append(f"faults={len(self.faults)}")
        if self.corruption:
            bits.append(f"corruption={self.corruption}")
        return " ".join(bits)


@dataclass
class CheckResult:
    """Outcome of checking one :class:`FuzzConfig`."""

    config: FuzzConfig
    #: "ok" — run completed; "device-lost" — graceful degradation exhausted
    #: both devices (an accepted outcome, §4.2 failover has nothing left to
    #: fail over to); "lint-rejected" — the static analyzer found the app's
    #: kernels unsafe to partition, so the run was never scheduled; "error"
    #: — the runtime crashed, always a failure
    outcome: str
    violations: List[Violation] = field(default_factory=list)
    correct: Optional[bool] = None
    max_relative_error: float = 0.0
    elapsed: float = 0.0
    wall_seconds: float = 0.0
    events: int = 0
    checks: int = 0
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return (bool(self.violations) or self.outcome == "error"
                or self.correct is False)

    def summary(self) -> str:
        status = "FAIL" if self.failed else self.outcome
        extra = ""
        if self.violations:
            extra = f" {len(self.violations)} violation(s)"
        elif self.correct is False:
            extra = f" wrong result (err={self.max_relative_error:.2e})"
        elif self.error:
            extra = f" {self.error}"
        label = "serve" if self.config.serve is not None else self.config.app
        n = (self.config.serve.requests if self.config.serve is not None
             else self.config.size)
        return (f"{status:11s} {label:8s} n={n:<4d} "
                f"checks={self.checks:<5d} events={self.events:<6d}"
                f"{extra}")


class ScheduleFuzzer:
    """Deterministic seed → :class:`FuzzConfig` expansion."""

    def __init__(self, apps: Sequence[str] = EXTENDED_SUITE,
                 scale: str = "test", faults: bool = True,
                 jitter: bool = True,
                 machines: Sequence[str] = ("default",),
                 serve: bool = False):
        self.apps = tuple(apps)
        self.scale = scale
        self.faults = faults
        self.jitter = jitter
        self.machines = tuple(machines) or ("default",)
        self.serve = serve

    def config(self, seed: int) -> FuzzConfig:
        if self.serve:
            return self._serve_config(seed)
        rng = random.Random(f"fluidicl-check:{seed}")
        # round-robin the apps so any seed range covers the whole suite;
        # the machine axis round-robins too, WITHOUT consuming rng draws —
        # seed N with machines=("default",) must stay byte-identical to
        # the historical draw (the bench drift gate replays seeds 0..5)
        app = self.apps[seed % len(self.apps)]
        machine = self.machines[seed % len(self.machines)]
        base = SCALES[self.scale][app]
        size = max(MIN_SIZE, rng.choice((base, base // 2)))
        jitter_seed = None
        if self.jitter and rng.random() < 0.75:
            jitter_seed = rng.randrange(2 ** 31)
        faults: Tuple[FaultSpec, ...] = ()
        if self.faults and rng.random() < 0.5:
            schedule = FaultSchedule.seeded(
                seed=rng.randrange(2 ** 31),
                window=(0.0, 2e-3),
                n=rng.randint(1, 2),
                devices=("gpu", "cpu"),
            )
            faults = tuple(schedule)
        return FuzzConfig(
            seed=seed,
            app=app,
            size=size,
            gpu_scale=round(2 ** rng.uniform(-2, 2), 4),
            cpu_scale=round(2 ** rng.uniform(-2, 2), 4),
            runtime=FluidiCLConfig(
                initial_chunk_fraction=round(rng.uniform(0.02, 0.5), 4),
                chunk_step_fraction=round(rng.uniform(0.0, 0.4), 4),
                abort_in_loops=rng.random() < 0.9,
                loop_unroll=rng.random() < 0.9,
                cpu_wg_split=rng.random() < 0.9,
                use_buffer_pool=rng.random() < 0.9,
                location_tracking=rng.random() < 0.9,
                online_profiling=rng.random() < 0.1,
            ),
            jitter_seed=jitter_seed,
            faults=faults,
            machine=machine,
        )

    def _serve_config(self, seed: int) -> FuzzConfig:
        """The serving-layer axis: seed → a multi-tenant load-test draw.

        Uses its own rng namespace (``fluidicl-serve-fuzz``) so it can
        evolve without perturbing the classic axes' historical draws.
        Utilization deliberately ranges past 1.0 — overload, shedding and
        tiny queue depths are exactly where admission accounting breaks.
        """
        rng = random.Random(f"fluidicl-serve-fuzz:{seed}")
        arrival = ("poisson", "burst", "closed")[seed % 3]
        machine = self.machines[seed % len(self.machines)]
        fault_seed = None
        fault_n = 0
        if self.faults and rng.random() < 0.5:
            fault_seed = rng.randrange(2 ** 31)
            fault_n = rng.randint(1, 4)
        jitter_seed = None
        if self.jitter and rng.random() < 0.75:
            jitter_seed = rng.randrange(2 ** 31)
        serve = ServeConfig(
            seed=seed,
            requests=rng.randrange(100, 400),
            arrival=arrival,
            utilization=round(rng.uniform(0.3, 1.5), 3),
            burst_factor=round(rng.uniform(2.0, 8.0), 2),
            on_fraction=round(rng.uniform(0.1, 0.6), 3),
            clients=rng.randint(2, 12),
            n_tenants=rng.randint(1, 4),
            machine=machine,
            max_queue_depth=rng.choice((2, 4, 8, 64)),
            max_inflight=rng.choice((1, 2, 4, 8)),
            fault_seed=fault_seed,
            fault_n=fault_n,
            jitter_seed=jitter_seed,
        )
        return FuzzConfig(seed=seed, serve=serve)

    def configs(self, n: int, start: int = 0) -> List[FuzzConfig]:
        return [self.config(seed) for seed in range(start, start + n)]


class _Corruptor:
    """Test-only event perturbation feeding fabricated events into the
    monitor, to prove the checker catches real coherence bugs.

    Registered *after* the monitor, so the genuine event is always
    processed first and only the fabricated follow-up is corrupt.
    """

    def __init__(self, monitor: CoherenceMonitor, kind: str):
        if kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption {kind!r}; have {CORRUPTION_KINDS}")
        self.monitor = monitor
        self.kind = kind
        self.fired = False

    def __call__(self, event: TraceEvent) -> None:
        if self.fired:
            return
        fake_attrs = None
        if self.kind == "overlap-window" and event.category == "subkernel_launch":
            # replay the same window: overlaps the front it just extended
            fake_attrs = dict(event.attrs)
        elif self.kind == "stale-read" and event.category == "commit":
            # pretend a read served a long-superseded version
            buffers = event.get("buffers") or ()
            if buffers:
                self.fired = True
                self.monitor.observe(replace(
                    event, category="buffer_read",
                    attrs={"buffer": buffers[0], "version": -1},
                ))
            return
        elif self.kind == "frontier-jump" and event.category == "status_delivery":
            if event.get("accepted", False):
                # repeat the frontier: breaks strict monotonic descent
                fake_attrs = dict(event.attrs)
        if fake_attrs is not None:
            self.fired = True
            self.monitor.observe(replace(event, attrs=fake_attrs))


def preflight_lint(app, config: FuzzConfig) -> List[LintReport]:
    """Statically analyze the app under ``config``'s variant flags.

    Returns the reports (kernels, and the whole pipeline of a
    ``PipelineApp``) that are **not** fluidic-safe — i.e. that must not
    be partitioned across devices.  Apps that do not expose
    :meth:`~repro.polybench.common.PolybenchApp.kernel_specs` contribute
    no kernel reports: the fuzzer cannot judge what it cannot see.
    """
    reports = analyze_app(app, abort_in_loops=config.runtime.abort_in_loops,
                          loop_unroll=config.runtime.loop_unroll)
    return [r for r in reports if not r.fluidic_safe]


def _run_serve_config(config: FuzzConfig, wall_start: float) -> CheckResult:
    """Check one serving-layer draw: the run must complete with zero
    invariant violations (serve-accounting included) and every submitted
    job accounted for (admitted + shed == submitted)."""
    outcome = "ok"
    error: Optional[str] = None
    violations: List[Violation] = []
    checks = 0
    events = 0
    elapsed = 0.0
    try:
        report = run_serve(config.serve)
        violations = list(report.violations)
        checks = report.checks
        events = report.events
        elapsed = report.simulated_seconds
        totals = report.totals
        if totals["submitted"] != totals["admitted"] + totals["shed"]:
            violations.append(Violation(
                "serve-accounting",
                f"submitted {totals['submitted']:.0f} != admitted "
                f"{totals['admitted']:.0f} + shed {totals['shed']:.0f}",
                ts=report.simulated_seconds,
            ))
        if totals["admitted"] != totals["completed"] + totals["failed"]:
            violations.append(Violation(
                "serve-accounting",
                f"admitted {totals['admitted']:.0f} jobs but only "
                f"{totals['completed']:.0f} completed + "
                f"{totals['failed']:.0f} failed drained",
                ts=report.simulated_seconds,
            ))
    except Exception as err:  # noqa: BLE001 - any crash is a finding
        outcome = "error"
        error = f"{type(err).__name__}: {err}"
    return CheckResult(
        config=config,
        outcome=outcome,
        violations=violations,
        elapsed=elapsed,
        wall_seconds=time.perf_counter() - wall_start,
        events=events,
        checks=checks,
        error=error,
    )


def run_config(config: FuzzConfig, rtol: float = DEFAULT_RTOL,
               trace_path: Optional[str] = None) -> CheckResult:
    """Execute one fuzz configuration and check every invariant.

    Before anything is scheduled, the static analyzer (:mod:`repro.analysis`)
    vets the app's kernels: a kernel that is not fluidic-safe would produce
    oracle mismatches by construction, so the run is skipped with outcome
    ``"lint-rejected"`` instead of reported as a (spurious) failure.

    ``trace_path``, when set, writes the run's full event stream as
    Chrome-trace JSON after the final invariant check (used by the
    ``scenarios`` CLI to ship an inspectable artifact per run).
    """
    wall_start = time.perf_counter()
    if config.serve is not None:
        return _run_serve_config(config, wall_start)
    app = make_app(config.app, scale="test", size=config.size)
    unsafe = preflight_lint(app, config)
    if unsafe:
        detail = "; ".join(
            f"{r.label}: {', '.join(sorted(set(f.rule_id for f in r.errors)))}"
            for r in unsafe)
        return CheckResult(
            config=config,
            outcome="lint-rejected",
            wall_seconds=time.perf_counter() - wall_start,
            error=f"not fluidic-safe: {detail}",
        )
    if config.machine not in MACHINE_PRESETS:
        raise ValueError(
            f"unknown machine preset {config.machine!r}; "
            f"have {sorted(MACHINE_PRESETS)}"
        )
    devices = [
        (spec.scaled(config.gpu_scale if spec.kind is DeviceKind.GPU
                     else config.cpu_scale), link)
        for spec, link in MACHINE_PRESETS[config.machine]
    ]
    machine = build_machine(devices=devices, trace=True,
                            interleave_seed=config.jitter_seed)
    runtime = FluidiCLRuntime(machine, config=config.runtime)
    monitor = CoherenceMonitor().attach(machine.tracer)
    if config.corruption:
        machine.tracer.add_listener(_Corruptor(monitor, config.corruption))
    if config.faults:
        install_faults(runtime.platform, FaultSchedule(list(config.faults)))

    outcome = "ok"
    correct: Optional[bool] = None
    max_err = 0.0
    elapsed = 0.0
    error: Optional[str] = None
    try:
        result = app.execute(runtime, check=True, rtol=rtol)
        runtime.drain()
        correct = result.correct
        max_err = result.max_relative_error
        elapsed = result.elapsed
    except DeviceLostError as err:
        outcome = "device-lost"
        error = str(err)
    except Exception as err:  # noqa: BLE001 - any crash is a finding
        outcome = "error"
        error = f"{type(err).__name__}: {err}"
    monitor.final_check(aborted=(outcome != "ok"))
    if trace_path is not None:
        from repro.obs.chrome import write_chrome_trace

        write_chrome_trace(trace_path, machine.tracer,
                           process_name=f"fluidicl:{config.app}")
    return CheckResult(
        config=config,
        outcome=outcome,
        violations=list(monitor.violations),
        correct=correct,
        max_relative_error=max_err,
        elapsed=elapsed,
        wall_seconds=time.perf_counter() - wall_start,
        events=len(machine.tracer.events),
        checks=monitor.checks,
        error=error,
    )
