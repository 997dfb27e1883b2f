"""The three workloads: ``pair``, ``checked`` and ``serve``.

Each workload builds its inputs from the seed, runs a fixed amount of work
per pass, checks every op, and reads the simulated-clock statistics from
public counters after each untimed check.  See ``NOTES.md`` for why each
workload exists and what each metric is expected to show.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.check.monitor import CoherenceMonitor
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import MACHINE_PRESETS, build_machine
from repro.hw.specs import DeviceKind
from repro.ocl.runtime import SingleDeviceRuntime
from repro.polybench.suite import SCALES, make_app
from repro.serve.job import SLO_DEADLINES, JobRejected
from repro.serve.profile import clear_profile_cache, measure_profile
from repro.serve.run import ServeConfig, run_serve
from repro.serve.server import Server
from repro.serve.workload import TenantSpec
from repro.sim.timebase import from_ticks

import spans

SCALE = "small"
PAIR_APPS = ("2mm", "bicg", "corr", "gesummv", "syrk", "syr2k", "atax",
             "mvt", "gemm", "3mm")
CHECKED_APPS = ("spmv", "histogram", "bfs", "scan", "gesummv", "bicg",
                "syrk")
CHECKED_PRESETS = ("default", "cpu+2gpu", "cpu+3gpu", "big.little")

#: serve: the pinned tenant mix (all three SLO classes), the fixed offered
#: rates in jobs per simulated second, and the jobs per ``run_serve`` call
TENANTS = (
    TenantSpec("bicg", "bicg", SCALES["test"]["bicg"], "interactive"),
    TenantSpec("gesummv", "gesummv", SCALES["test"]["gesummv"],
               "interactive"),
    TenantSpec("spmv", "spmv", SCALES["test"]["spmv"], "batch"),
    TenantSpec("gemm", "gemm", SCALES["test"]["gemm"], "best-effort"),
)
#: about 70% of the capacity measured at this mix (about 3600 jobs/s)
NOMINAL_RATE = 2500.0
JOBS_PER_CALL = 2000
#: capacity limit on the p99 over all jobs: the ``interactive`` deadline
LATENCY_LIMIT_MS = SLO_DEADLINES["interactive"] * 1e3
#: the capacity search bisects this fixed geometric grid of offered rates
SEARCH_RATES = tuple(float(round(NOMINAL_RATE * 1.03 ** k))
                     for k in range(-40, 21))
#: independent arrival streams pooled at each probed rate
SEARCH_REPLICAS = 3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rule ``repro.serve`` reports with)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       int(round(q / 100.0 * (len(ordered) - 1))))]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass(frozen=True)
class Case:
    app: str
    preset: str

    @property
    def name(self) -> str:
        return f"{self.app}.{self.preset.replace('+', '-')}"


@dataclass
class Baseline:
    """Single-device runs of one case, on its preset and inputs."""

    #: best single-device simulated seconds over the preset's device kinds
    seconds: float
    #: the single-device GPU outputs every cooperative op must equal
    outputs: Dict[str, np.ndarray]
    #: work-groups the single-device GPU run executed
    groups: int


def _kinds(preset: str) -> List[DeviceKind]:
    kinds: List[DeviceKind] = []
    for spec, _link in MACHINE_PRESETS[preset]:
        if spec.kind not in kinds:
            kinds.append(spec.kind)
    return kinds


def single_device_baseline(app, inputs, preset: str,
                           check_reference: bool) -> Tuple[Baseline, bool]:
    """Run ``app`` on each device kind of ``preset`` alone.

    Each kind runs on its first device of the preset (``big.little`` has
    no CPU, so its baseline is the big GPU).  With ``check_reference`` the
    GPU outputs are also compared with ``app.reference()`` within the
    app's tolerance; the flag returned says whether they passed.
    """
    best = math.inf
    outputs: Dict[str, np.ndarray] = {}
    groups = 0
    reference_ok = True
    for kind in _kinds(preset):
        runtime = SingleDeviceRuntime(build_machine(preset=preset), kind)
        is_gpu = kind is DeviceKind.GPU
        result = app.execute(runtime, inputs=inputs,
                             check=check_reference and is_gpu)
        best = min(best, result.elapsed)
        if is_gpu:
            outputs = result.outputs
            groups = runtime.device.stats["workgroups_executed"]
            reference_ok = result.correct
    return Baseline(best, outputs, groups), reference_ok


def cooperative_run(app, inputs, preset: str, checked: bool):
    """One op: a fresh node and cooperative runtime, the host program run
    to completion; ``checked`` traces the node and checks coherence."""
    machine = build_machine(preset=preset, trace=checked)
    runtime = FluidiCLRuntime(machine)
    monitor = CoherenceMonitor().attach(machine.tracer) if checked else None
    result = app.execute(runtime, inputs=inputs, check=False)
    runtime.drain()
    if monitor is not None:
        monitor.final_check()
    return result, runtime, monitor


def _device_counters(devices, elapsed: float) -> Dict[str, float]:
    """Simulated-clock device split of one op (anchor = device 0)."""
    anchor, workers = devices[0], devices[1:]
    transfer = sum(
        d.transfer_time(d.stats[key])
        for d in devices for key in ("bytes_h2d", "bytes_d2h")
        if d.stats[key])
    return {
        "dev.anchor.compute_ms": anchor.stats["busy_compute_time"] * 1e3,
        "dev.anchor.idle_ms":
            (elapsed - anchor.stats["busy_compute_time"]) * 1e3,
        "dev.anchor.groups_aborted": anchor.stats["workgroups_aborted"],
        "dev.workers.compute_ms":
            sum(d.stats["busy_compute_time"] for d in workers) * 1e3,
        "dev.workers.idle_ms":
            sum(elapsed - d.stats["busy_compute_time"] for d in workers) * 1e3,
        "dev.groups_executed":
            sum(d.stats["workgroups_executed"] for d in devices),
        "dev.transfer_ms": transfer * 1e3,
        "dev.h2d_mb": sum(d.stats["bytes_h2d"] for d in devices) / 1e6,
        "dev.d2h_mb": sum(d.stats["bytes_d2h"] for d in devices) / 1e6,
    }


_DEVICE_KEYS = (
    "dev.anchor.compute_ms", "dev.anchor.idle_ms",
    "dev.anchor.groups_aborted", "dev.workers.compute_ms",
    "dev.workers.idle_ms", "dev.groups_executed", "dev.transfer_ms",
    "dev.h2d_mb", "dev.d2h_mb")
_CORE_KEYS = ("core.subkernels", "core.merges", "core.stale_dh_discards")
_SERVE_KEYS = ("serve.completed", "serve.shed", "serve.max_queue_depth",
               "serve.queue_wait_ms.p99", "serve.service_ms.p50",
               "serve.interactive.p99_ms", "serve.batch.p99_ms",
               "serve.lane_busy_frac", "serve.slo_miss_rate")


class Tally:
    """Ops attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: run-level checks that are not tied to one op
        self.problems: List[str] = []

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: check failed: {message}", file=sys.stderr)


@dataclass
class PassResult:
    #: host seconds spent inside the ops of the pass
    seconds: float
    ops: int


class AppWorkload:
    """``pair`` and ``checked``: closed loops of cooperative app runs."""

    def __init__(self, name: str, cases: Sequence[Case], checked: bool,
                 seed: int, passes_per_second: float, tally: Tally):
        self.name = name
        self.cases = tuple(cases)
        self.checked = checked
        self.seed = seed
        self.passes_per_second = passes_per_second
        self.tally = tally
        self.apps: Dict[str, Tuple[object, dict]] = {}
        self.baselines: Dict[Case, Baseline] = {}
        #: simulated seconds of each case's first run; every later run of
        #: the case (any setup round, traced or not) must reproduce it
        self.reference: Dict[Case, float] = {}
        #: per-op simulated counters of the first complete pass
        self.first_pass: Optional[List[Dict[str, float]]] = None

    # -- setup -------------------------------------------------------------
    def setup_round(self) -> Dict[str, float]:
        """Build inputs and baselines from scratch, then warm up once."""
        phases = {}
        began = perf_counter()
        self.apps = {}
        for case in self.cases:
            if case.app not in self.apps:
                app = make_app(case.app, SCALE, seed=self.seed)
                self.apps[case.app] = (app, app.fresh_inputs())
        phases["inputs_s"] = perf_counter() - began

        began = perf_counter()
        self.baselines = {}
        checked_reference = set()
        for case in self.cases:
            app, inputs = self.apps[case.app]
            check = case.app not in checked_reference
            checked_reference.add(case.app)
            baseline, reference_ok = single_device_baseline(
                app, inputs, case.preset, check)
            if not reference_ok:
                self.tally.problem(
                    f"{case.app}: single-device GPU output differs from "
                    f"reference() beyond the app's tolerance")
            self.baselines[case] = baseline
        phases["baselines_s"] = perf_counter() - began
        phases["profiles_s"] = 0.0

        began = perf_counter()
        self.first_pass = None
        self.run_pass()
        phases["warmup_s"] = perf_counter() - began
        return phases

    def passes(self, seconds: float) -> int:
        return max(3, round(seconds * self.passes_per_second))

    def app_classes(self):
        return {type(app) for app, _inputs in self.apps.values()}

    # -- ops ---------------------------------------------------------------
    def run_pass(self, index: int = 0,
                 log: Optional[spans.SpanLog] = None) -> PassResult:
        """Run every case once, in a fixed order; only the ops are timed."""
        seconds = 0.0
        counters = []
        for case in self.cases:
            app, inputs = self.apps[case.app]
            self.tally.attempted += 1
            root = None
            began = perf_counter()
            try:
                if log is not None:
                    log.op_id += 1
                    root = log.begin(spans.OP)
                try:
                    result, runtime, monitor = cooperative_run(
                        app, inputs, case.preset, self.checked)
                finally:
                    if root is not None:
                        log.finish(root)
                    seconds += perf_counter() - began
            except Exception:  # noqa: BLE001 - a crashed op is a failed op
                _report_failure(f"{self.name} op {case.name}")
                self.tally.failed += 1
                continue
            failure = self._check(case, result, monitor)
            if failure:
                self.tally.failed += 1
                print(f"perfbench: {self.name} op {case.name}: {failure}",
                      file=sys.stderr)
            counters.append(self._counters(case, result, runtime))
        if self.first_pass is None and len(counters) == len(self.cases):
            self.first_pass = counters
        return PassResult(seconds, len(self.cases))

    def _check(self, case: Case, result, monitor) -> str:
        expected = self.baselines[case].outputs
        if set(result.outputs) != set(expected) or not all(
                np.array_equal(result.outputs[key], expected[key])
                for key in expected):
            return "outputs differ from the single-device GPU run"
        if monitor is not None and not monitor.ok:
            return monitor.report()
        reference = self.reference.setdefault(case, result.elapsed)
        if result.elapsed != reference:
            return (f"simulated time {result.elapsed!r} s differs from the "
                    f"first run's {reference!r} s")
        return ""

    def _counters(self, case: Case, result, runtime) -> Dict[str, float]:
        devices = runtime.platform.devices
        counters = _device_counters(devices, result.elapsed)
        extra = runtime.stats.extra
        counters.update({
            "elapsed": result.elapsed,
            "speedup": self.baselines[case].seconds / result.elapsed,
            "baseline_groups": self.baselines[case].groups,
            "groups_attempted": sum(d.stats["workgroups_executed"]
                                    + d.stats["workgroups_aborted"]
                                    for d in devices),
            "core.subkernels": extra["subkernels_launched"],
            "core.merges": extra["merges"],
            "core.stale_dh_discards": extra["stale_dh_discards"],
        })
        return counters

    # -- metrics -------------------------------------------------------------
    def sim_metrics(self) -> Dict[str, float]:
        """End-to-end simulated metrics of one pass (exact per seed)."""
        ops = self.first_pass or []
        if not ops:
            return {}
        elapsed_ms = [op["elapsed"] * 1e3 for op in ops]
        speedups = [op["speedup"] for op in ops]
        total_ms = sum(elapsed_ms)
        return {
            "sim_ms.total": total_ms,
            "sim_speedup.geomean": geomean(speedups),
            "sim_speedup.min": min(speedups),
            "p50_ms": percentile(elapsed_ms, 50.0),
            "p99_ms": percentile(elapsed_ms, 99.0),
            "capacity_jobs_per_s": len(ops) / (total_ms / 1e3),
        }

    def speedups(self) -> Dict[str, float]:
        """Per-case simulated speedup, keyed ``speedup.<app>.<preset>``."""
        return {f"speedup.{case.name}": op["speedup"]
                for case, op in zip(self.cases, self.first_pass or [])}

    def layer_sim_metrics(self) -> Dict[str, float]:
        """Simulated-clock per-layer metrics, summed over one pass."""
        ops = self.first_pass or []
        out = {key: float(sum(op[key] for op in ops))
               for key in _DEVICE_KEYS + _CORE_KEYS}
        attempted = sum(op["groups_attempted"] for op in ops)
        out["core.useful_group_ratio"] = (
            sum(op["baseline_groups"] for op in ops) / attempted
            if attempted else 0.0)
        out.update({key: 0.0 for key in _SERVE_KEYS})
        return out


def pair_workload(seed: int, tally: Tally) -> AppWorkload:
    return AppWorkload("pair", [Case(app, "default") for app in PAIR_APPS],
                       checked=False, seed=seed, passes_per_second=3.5,
                       tally=tally)


def checked_workload(seed: int, tally: Tally) -> AppWorkload:
    cases = [Case(app, preset) for preset in CHECKED_PRESETS
             for app in CHECKED_APPS]
    return AppWorkload("checked", cases, checked=True, seed=seed,
                       passes_per_second=1.25, tally=tally)


# -- serve -------------------------------------------------------------------
class JobTap:
    """Collects the :class:`JobRecord` of every ``Server.submit`` call (shed
    jobs included) and the server they went to, without changing either.
    Installed for the life of the process: ``run_serve`` returns neither."""

    def __init__(self):
        self.records: list = []
        self.server: Optional[Server] = None

    def install(self) -> None:
        submit = Server.submit
        tap = self

        def tapped(server, job):
            tap.server = server
            try:
                record = submit(server, job)
            except JobRejected as rejection:
                tap.records.append(rejection.record)
                raise
            tap.records.append(record)
            return record

        Server.submit = tapped

    def take(self):
        records, server = self.records, self.server
        self.records, self.server = [], None
        return records, server


@dataclass
class ServeCall:
    """Simulated facts of one ``run_serve`` call, read after it ran."""

    seconds: float
    ok: bool
    digest: str
    simulated: float
    latencies_ms: List[float]
    by_class_ms: Dict[str, List[float]]
    queue_wait_ms: List[float]
    service_ms: List[float]
    shed: int
    failed: int
    max_queue_depth: float
    busy_compute: float
    devices: Dict[str, float]


class ServeWorkload:
    """``serve``: open-loop Poisson tenants through ``run_serve``."""

    def __init__(self, seed: int, tally: Tally):
        self.name = "serve"
        self.seed = seed
        self.tally = tally
        self.tap = JobTap()
        self.tap.install()
        self.profiles: Dict[str, object] = {}
        self.app_speedups: Dict[str, float] = {}
        #: digest of each nominal pass index; every repeat must match
        self.digests: Dict[int, str] = {}
        self.calls: List[ServeCall] = []

    def config(self, rate: float, sub_seed: int) -> ServeConfig:
        return ServeConfig(seed=sub_seed, requests=JOBS_PER_CALL, rate=rate,
                           tenants=TENANTS)

    def sub_seed(self, stream: int, index: int) -> int:
        return self.seed * 1_000_000 + stream * 10_000 + index

    # -- setup -------------------------------------------------------------
    def setup_round(self) -> Dict[str, float]:
        phases = {"inputs_s": 0.0}
        began = perf_counter()
        self.app_speedups = {}
        baselines = {}
        for tenant in TENANTS:
            app = make_app(tenant.app, "test", size=tenant.size)
            baseline, _ok = single_device_baseline(
                app, app.fresh_inputs(), "default", check_reference=False)
            baselines[tenant.app] = baseline.seconds
        phases["baselines_s"] = perf_counter() - began

        began = perf_counter()
        clear_profile_cache()
        self.profiles = {t.app: measure_profile(t.app, t.size, "default")
                         for t in TENANTS}
        for app, profile in self.profiles.items():
            self.app_speedups[app] = baselines[app] / profile.elapsed_seconds
        phases["profiles_s"] = perf_counter() - began

        began = perf_counter()
        self.calls = []
        self.run_pass(0)
        self.calls = []
        phases["warmup_s"] = perf_counter() - began
        return phases

    def passes(self, seconds: float) -> int:
        return max(3, round(seconds * 2.0))

    def app_classes(self):
        return ()

    # -- ops -----------------------------------------------------------------
    def call(self, rate: float, sub_seed: int,
             log: Optional[spans.SpanLog] = None) -> ServeCall:
        config = self.config(rate, sub_seed)
        self.tally.attempted += config.requests
        self.tap.take()
        root = None
        began = perf_counter()
        try:
            if log is not None:
                log.op_id += 1
                root = log.begin(spans.OP)
            try:
                report = run_serve(config)
            finally:
                if root is not None:
                    log.finish(root)
                seconds = perf_counter() - began
        except Exception:  # noqa: BLE001 - a crashed call fails its jobs
            _report_failure(f"serve call rate={rate} seed={sub_seed}")
            self.tally.failed += config.requests
            self.tap.take()
            return ServeCall(0.0, False, "", 0.0, [], {}, [], [], 0,
                             config.requests, 0.0, 0.0, {})
        records, server = self.tap.take()
        return self._distill(config, report, records, server, seconds)

    def _distill(self, config, report, records, server,
                 seconds: float) -> ServeCall:
        totals = report.totals
        problems = []
        if not report.ok:
            problems.append(f"{len(report.violations)} monitor violation(s)")
        if totals["submitted"] != totals["admitted"] + totals["shed"]:
            problems.append("submitted != admitted + shed")
        if totals["admitted"] != totals["completed"] + totals["failed"]:
            problems.append("admitted != completed + failed")
        if len(records) != config.requests or \
                totals["submitted"] != config.requests:
            problems.append(f"{len(records)} records for "
                            f"{config.requests} requests")
        if any(r.outcome not in ("done", "shed", "failed") for r in records):
            problems.append("a job never resolved")
        failed = int(totals["failed"])
        if problems:
            failed = config.requests
            print(f"perfbench: serve seed={config.seed} "
                  f"rate={config.rate}: {'; '.join(problems)}",
                  file=sys.stderr)
        self.tally.failed += failed

        done = [r for r in records if r.outcome == "done"]
        by_class: Dict[str, List[float]] = {}
        for r in done:
            by_class.setdefault(r.job.slo, []).append(
                from_ticks(r.latency_ticks) * 1e3)
        devices = server.platform.devices if server is not None else []
        return ServeCall(
            seconds=seconds,
            ok=not problems,
            digest=report.digest,
            simulated=report.simulated_seconds,
            latencies_ms=[from_ticks(r.latency_ticks) * 1e3 for r in done],
            by_class_ms=by_class,
            queue_wait_ms=[from_ticks(r.started_ticks - r.admitted_ticks)
                           * 1e3 for r in done],
            service_ms=[from_ticks(r.done_ticks - r.started_ticks) * 1e3
                        for r in done],
            shed=int(totals["shed"]),
            failed=failed,
            max_queue_depth=max(row["max_queue_depth"]
                                for row in report.tenants.values()),
            busy_compute=sum(self.profiles[r.job.app].compute_seconds
                             for r in done),
            devices=(_device_counters(devices, report.simulated_seconds)
                     if devices else {}),
        )

    def run_pass(self, index: int = 0,
                 log: Optional[spans.SpanLog] = None) -> PassResult:
        """One ``run_serve`` call at the nominal rate; pass ``index`` picks
        the arrival stream, so repeating an index must repeat its digest."""
        sub_seed = self.sub_seed(0, index)
        result = self.call(NOMINAL_RATE, sub_seed, log)
        if result.ok:
            expected = self.digests.setdefault(index, result.digest)
            if result.digest != expected:
                self.tally.failed += JOBS_PER_CALL
                print(f"perfbench: serve pass {index}: digest "
                      f"{result.digest} differs from {expected}",
                      file=sys.stderr)
        self.calls.append(result)
        return PassResult(result.seconds, JOBS_PER_CALL)

    # -- capacity search --------------------------------------------------------
    def meets_limit(self, rate: float, index: int) -> bool:
        """p99 over all jobs of the pooled replicas within the limit and no
        job shed (or failed)."""
        calls = [self.call(rate, self.sub_seed(1 + r, index))
                 for r in range(SEARCH_REPLICAS)]
        latencies = [v for c in calls for v in c.latencies_ms]
        return (all(c.ok and c.shed == 0 and c.failed == 0 for c in calls)
                and percentile(latencies, 99.0) <= LATENCY_LIMIT_MS)

    def capacity(self) -> float:
        """Highest grid rate meeting the limit, by bisection (the p99 grows
        with the offered rate); the nominal passes decide the grid's
        nominal point without a probe."""
        nominal = SEARCH_RATES.index(NOMINAL_RATE)
        latencies = [v for c in self.calls for v in c.latencies_ms]
        nominal_ok = (all(c.ok and c.shed == 0 and c.failed == 0
                          for c in self.calls)
                      and percentile(latencies, 99.0) <= LATENCY_LIMIT_MS)
        lo, hi = (nominal, len(SEARCH_RATES)) if nominal_ok else (-1, nominal)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.meets_limit(SEARCH_RATES[mid], mid):
                lo = mid
            else:
                hi = mid
        if lo < 0:
            self.tally.problem("no rate on the search grid meets the limit")
            return SEARCH_RATES[0]
        return SEARCH_RATES[lo]

    # -- metrics -------------------------------------------------------------
    def sim_metrics(self) -> Dict[str, float]:
        calls = [c for c in self.calls if c.ok]
        if not calls:
            return {}
        latencies = [v for c in calls for v in c.latencies_ms]
        return {
            # passes differ only in their arrival streams: the mean over
            # them estimates one pass more steadily than any single one
            "sim_ms.total": sum(c.simulated for c in calls) / len(calls) * 1e3,
            "sim_speedup.geomean": geomean(list(self.app_speedups.values())),
            "sim_speedup.min": min(self.app_speedups.values()),
            "p50_ms": percentile(latencies, 50.0),
            "p99_ms": percentile(latencies, 99.0),
            "capacity_jobs_per_s": self.capacity(),
        }

    def layer_sim_metrics(self) -> Dict[str, float]:
        """Simulated-clock per-layer metrics over the nominal calls."""
        calls = [c for c in self.calls if c.ok]
        out = {key: float(sum(c.devices.get(key, 0.0) for c in calls))
               for key in _DEVICE_KEYS}
        out.update({key: 0.0 for key in _CORE_KEYS})
        out["core.useful_group_ratio"] = 0.0
        submitted = JOBS_PER_CALL * len(calls)
        completed = sum(len(c.latencies_ms) for c in calls)
        missed = sum(
            sum(1 for v in c.by_class_ms.get(slo, ())
                if v > SLO_DEADLINES[slo] * 1e3)
            for c in calls for slo in SLO_DEADLINES)
        shed = sum(c.shed for c in calls)
        failed = sum(c.failed for c in calls)
        simulated = sum(c.simulated for c in calls)

        def pooled(attr, key=None):
            values = []
            for c in calls:
                source = getattr(c, attr)
                values.extend(source.get(key, ()) if key else source)
            return values

        out.update({
            "serve.completed": float(completed),
            "serve.shed": float(shed),
            "serve.max_queue_depth": max(
                (c.max_queue_depth for c in calls), default=0.0),
            "serve.queue_wait_ms.p99":
                percentile(pooled("queue_wait_ms"), 99.0),
            "serve.service_ms.p50": percentile(pooled("service_ms"), 50.0),
            "serve.interactive.p99_ms":
                percentile(pooled("by_class_ms", "interactive"), 99.0),
            "serve.batch.p99_ms":
                percentile(pooled("by_class_ms", "batch"), 99.0),
            "serve.lane_busy_frac": (sum(c.busy_compute for c in calls)
                                     / simulated if simulated else 0.0),
            "serve.slo_miss_rate": ((shed + failed + missed) / submitted
                                    if submitted else 0.0),
        })
        return out


def serve_profiles() -> Dict[str, float]:
    """``serve.profile.<app>.compute_ms`` for the pinned tenant mix."""
    return {f"serve.profile.{t.app}.compute_ms":
            measure_profile(t.app, t.size, "default").compute_seconds * 1e3
            for t in TENANTS}


def make_workload(name: str, seed: int, tally: Tally):
    if name == "pair":
        return pair_workload(seed, tally)
    if name == "checked":
        return checked_workload(seed, tally)
    if name == "serve":
        return ServeWorkload(seed, tally)
    raise ValueError(f"unknown workload {name!r}")
