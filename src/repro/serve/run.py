"""One reproducible serving scenario: configure, execute, check, report.

:class:`ServeConfig` freezes every knob of a load test — seed, request
budget, arrival model, tenant mix, machine preset, admission limits,
optional fault schedule — so a scenario is a value that can be stored in
a fuzzer config, shrunk, or replayed.  :func:`run_serve` executes it:
build the machine, measure the app profiles, attach the
:class:`~repro.check.monitor.CoherenceMonitor`, optionally install the
fault injector, drive the workload to completion, and distill a
:class:`ServeReport` with per-tenant tail latencies, throughput, shed
rate and SLO attainment.

Determinism contract: the same config yields bit-identical simulated
timestamps run over run.  The report carries a SHA-256 digest over every
job's (id, submitted, outcome, done) tick tuple so "bit-identical" is a
one-line comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.injector import install_faults
from repro.faults.schedule import FaultSchedule
from repro.hw.machine import build_machine
from repro.obs.recorder import EventRecorder
from repro.serve.job import JobRecord
from repro.serve.profile import AppProfile, measure_profile
from repro.serve.server import Server
from repro.serve.workload import TenantSpec, default_tenant_mix, spawn_workload
from repro.sim.timebase import from_ticks

__all__ = ["ServeConfig", "ServeReport", "run_serve"]


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of one serving load test (frozen: usable as a value)."""

    seed: int = 0
    requests: int = 1000
    #: arrival model: "poisson" / "burst" (MMPP on-off) / "closed"
    arrival: str = "poisson"
    #: open-loop arrival rate (jobs/s); None derives it from ``utilization``
    #: against the measured mean service time
    rate: Optional[float] = None
    #: target offered load when ``rate``/``think_time`` are derived
    utilization: float = 0.7
    burst_factor: float = 4.0
    on_fraction: float = 0.25
    clients: int = 8
    #: closed-loop mean think time (s); None derives it from ``utilization``
    think_time: Optional[float] = None
    #: explicit tenant mix; empty draws ``n_tenants`` from the default pool
    tenants: Tuple[TenantSpec, ...] = ()
    n_tenants: int = 3
    machine: str = "default"
    max_queue_depth: int = 64
    max_inflight: int = 4
    #: arm the fault injector with FaultSchedule.seeded(fault_seed, ...)
    fault_seed: Optional[int] = None
    fault_n: int = 3
    #: same-instant interleave jitter seed (schedule-space fuzzing)
    jitter_seed: Optional[int] = None

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.arrival not in ("poisson", "burst", "closed"):
            raise ValueError(f"unknown arrival model {self.arrival!r}")
        if not 0.0 < self.utilization:
            raise ValueError("utilization must be > 0")

    def resolve_tenants(self) -> Tuple[TenantSpec, ...]:
        return self.tenants or default_tenant_mix(self.seed, self.n_tenants)


@dataclass
class ServeReport:
    """What one serving run produced (JSON-ready via :meth:`to_json`)."""

    config: ServeConfig
    #: per-tenant result rows, keyed by tenant name
    tenants: Dict[str, Dict[str, float]]
    totals: Dict[str, float]
    simulated_seconds: float
    #: SHA-256 over every job's (id, submitted, outcome, done) tick tuple
    digest: str
    #: :class:`~repro.check.monitor.Violation` objects (stringified in JSON)
    violations: List[object] = field(default_factory=list)
    checks: int = 0
    #: typed events the run recorded (retained or not)
    events: int = 0
    faults_injected: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, object]:
        config = {
            name: getattr(self.config, name)
            for name in self.config.__dataclass_fields__
        }
        config["tenants"] = [
            {f: getattr(t, f) for f in t.__dataclass_fields__}
            for t in self.config.resolve_tenants()
        ]
        return {
            "config": config,
            "tenants": self.tenants,
            "totals": self.totals,
            "simulated_seconds": self.simulated_seconds,
            "digest": self.digest,
            "violations": [str(v) for v in self.violations],
            "checks": self.checks,
            "faults_injected": self.faults_injected,
            "ok": self.ok,
        }

    def format_table(self) -> str:
        """Human-readable per-tenant SLO report."""
        header = (f"{'tenant':<10} {'app':<10} {'slo':<12} {'sub':>7} "
                  f"{'shed':>6} {'done':>7} {'p50 ms':>9} {'p95 ms':>9} "
                  f"{'p99 ms':>9} {'jobs/s':>8} {'SLO %':>7} {'maxQ':>5}")
        lines = [header, "-" * len(header)]
        for name in sorted(self.tenants):
            row = self.tenants[name]
            lines.append(
                f"{name:<10} {row['app']:<10} {row['slo']:<12} "
                f"{row['submitted']:>7.0f} {row['shed']:>6.0f} "
                f"{row['completed']:>7.0f} {row['p50_ms']:>9.3f} "
                f"{row['p95_ms']:>9.3f} {row['p99_ms']:>9.3f} "
                f"{row['throughput']:>8.1f} "
                f"{100.0 * row['slo_attainment']:>6.1f}% "
                f"{row['max_queue_depth']:>5.0f}"
            )
        totals = self.totals
        lines.append("-" * len(header))
        lines.append(
            f"total: {totals['submitted']:.0f} submitted, "
            f"{totals['admitted']:.0f} admitted, {totals['shed']:.0f} shed "
            f"({100.0 * totals['shed_rate']:.2f}%), "
            f"{totals['completed']:.0f} completed, "
            f"{totals['failed']:.0f} failed in "
            f"{self.simulated_seconds:.3f}s simulated "
            f"({totals['throughput']:.1f} jobs/s, "
            f"SLO attainment {100.0 * totals['slo_attainment']:.1f}%)"
        )
        if self.faults_injected:
            lines.append(f"faults injected: {self.faults_injected}")
        lines.append(f"digest: {self.digest}")
        return "\n".join(lines)


def _percentile_ticks(samples: List[int], q: float) -> float:
    """Exact nearest-rank percentile over tick-valued samples, in ms."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                int(round(q / 100.0 * (len(ordered) - 1))))
    return from_ticks(ordered[index]) * 1e3


def _mean_service_seconds(tenants: Tuple[TenantSpec, ...],
                          profiles: Dict[Tuple[str, int], AppProfile]) -> float:
    """Share-weighted mean of the front-serialized compute stage — the
    serving bottleneck (jobs hold every device front while computing)."""
    total_share = sum(t.share for t in tenants)
    mean = sum(
        t.share * profiles[(t.app, t.size)].compute_seconds
        for t in tenants
    ) / total_share
    return max(mean, 1e-9)


def _digest(records: List[JobRecord]) -> str:
    """SHA-256 over every job's lifecycle ticks, in submission order."""
    h = hashlib.sha256()
    for record in records:
        h.update(
            f"{record.job.job_id}:{record.submitted_ticks}:"
            f"{record.outcome}:{record.done_ticks}\n".encode()
        )
    return h.hexdigest()


def run_serve(config: ServeConfig,
              trace_path: Optional[str] = None,
              strict: bool = False) -> ServeReport:
    """Execute one serving scenario and distill the report.

    ``trace_path`` writes a Chrome trace of the run (forces full event
    retention — avoid for 10^5-request tests); ``strict`` makes the
    coherence monitor raise at the first invariant violation.
    """
    from repro.check.monitor import CoherenceMonitor

    tenants = config.resolve_tenants()
    profiles = {
        (t.app, t.size): measure_profile(t.app, t.size, config.machine)
        for t in tenants
    }
    mean_service = _mean_service_seconds(tenants, profiles)
    rate = config.rate
    if rate is None:
        rate = config.utilization / mean_service
    think_time = config.think_time
    if think_time is None:
        # closed-loop: throughput ~= clients / (service + think); pick the
        # think time that offers ``utilization`` of the service capacity
        think_time = max(
            mean_service * (config.clients / config.utilization - 1.0), 0.0)

    machine = build_machine(preset=config.machine,
                            interleave_seed=config.jitter_seed)
    # Retain the event streams only when someone will read them post-run;
    # online consumers (monitor, listeners) see every event either way.
    recorder = EventRecorder(retain=trace_path is not None)
    machine.engine.tracer = recorder
    monitor = CoherenceMonitor(strict=strict).attach(recorder)

    server = Server(
        machine,
        profiles,
        max_queue_depth=config.max_queue_depth,
        max_inflight=config.max_inflight,
        weights={t.name: t.weight for t in tenants},
    )
    injector = None
    if config.fault_seed is not None:
        horizon = max(config.requests / rate, 1e-3)
        schedule = FaultSchedule.seeded(
            config.fault_seed,
            window=(0.0, horizon),
            n=config.fault_n,
            devices=[d.name for d in server.platform.devices],
        )
        injector = install_faults(server.platform, schedule)

    _done, records = spawn_workload(
        server, tenants,
        requests=config.requests,
        seed=config.seed,
        arrival=config.arrival,
        rate=rate,
        burst_factor=config.burst_factor,
        on_fraction=config.on_fraction,
        clients=config.clients,
        think_time=think_time,
    )
    machine.engine.run()
    aborted = all(d.health.lost for d in server.platform.devices)
    monitor.final_check(aborted=aborted)

    if trace_path is not None:
        from repro.obs.chrome import write_chrome_trace
        write_chrome_trace(trace_path, recorder, process_name="repro.serve")

    simulated = machine.engine.now
    spec_by_name = {t.name: t for t in tenants}
    latency_ticks: Dict[str, List[int]] = {name: [] for name in spec_by_name}
    attained = dict.fromkeys(spec_by_name, 0)
    for record in records:
        if record.outcome == "done":
            latency_ticks[record.job.tenant].append(record.latency_ticks)
            attained[record.job.tenant] += record.slo_attained
    rows: Dict[str, Dict[str, float]] = {}
    for name, spec in spec_by_name.items():
        counts = server.stats.tenant_counts(name)
        latencies = latency_ticks[name]
        completed = counts["completed"]
        rows[name] = {
            "app": spec.app,
            "slo": spec.slo,
            "submitted": float(counts["submitted"]),
            "admitted": float(counts["admitted"]),
            "shed": float(counts["shed"]),
            "completed": float(completed),
            "failed": float(counts["failed"]),
            "p50_ms": _percentile_ticks(latencies, 50.0),
            "p95_ms": _percentile_ticks(latencies, 95.0),
            "p99_ms": _percentile_ticks(latencies, 99.0),
            "throughput": completed / simulated if simulated > 0 else 0.0,
            "shed_rate": (counts["shed"] / counts["submitted"]
                          if counts["submitted"] else 0.0),
            "slo_attainment": (attained[name] / completed
                               if completed else 0.0),
            "max_queue_depth": float(server.stats.peak_depth.get(name, 0)),
        }
    totals: Dict[str, float] = {}
    for key in ("submitted", "admitted", "shed", "completed", "failed"):
        totals[key] = sum(row[key] for row in rows.values())
    totals["shed_rate"] = (totals["shed"] / totals["submitted"]
                           if totals["submitted"] else 0.0)
    totals["throughput"] = (totals["completed"] / simulated
                            if simulated > 0 else 0.0)
    totals["slo_attainment"] = (sum(attained.values()) / totals["completed"]
                                if totals["completed"] else 0.0)

    return ServeReport(
        config=config,
        tenants=rows,
        totals=totals,
        simulated_seconds=simulated,
        digest=_digest(records),
        violations=list(monitor.violations),
        checks=monitor.checks,
        events=recorder.recorded,
        faults_injected=len(injector.applied) if injector else 0,
    )
