"""``python -m repro.harness serve`` — the multi-tenant SLO load test.

Drives a seeded workload (open-loop Poisson / MMPP burst, or closed-loop
clients) through the :mod:`repro.serve` serving layer and reports
per-tenant p50/p95/p99 latency, throughput, queue depths, shed rate and
SLO attainment — as a table, optionally as JSON and a Chrome trace.  The
coherence monitor (invariant #12 included) runs online for the whole
test; any violation fails the run.  ``--faults`` composes the
fault-injection subsystem, so the tail latencies under device stalls,
losses and link degradation are one flag away.

Exit status: 0 on a clean run, 1 on invariant violations or a breached
``--max-shed-rate`` gate (the CI smoke gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.harness.check_cli import bounded
from repro.hw.machine import MACHINE_PRESETS
from repro.serve.run import ServeConfig, run_serve
from repro.serve.workload import TenantSpec

__all__ = ["serve_main"]


def _parse_tenants(spec: str) -> List[TenantSpec]:
    """Parse ``name:app:size:slo[:weight[:share]]`` tenant triples."""
    tenants = []
    for part in spec.split(","):
        fields = part.split(":")
        if not 4 <= len(fields) <= 6:
            raise argparse.ArgumentTypeError(
                f"tenant {part!r} is not name:app:size:slo[:weight[:share]]"
            )
        tenants.append(TenantSpec(
            name=fields[0],
            app=fields[1],
            size=int(fields[2]),
            slo=fields[3],
            weight=float(fields[4]) if len(fields) > 4 else 1.0,
            share=float(fields[5]) if len(fields) > 5 else 1.0,
        ))
    return tenants


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description=(
            "Multi-tenant serving load test with online coherence checking."
        ),
    )
    parser.add_argument("--requests", type=bounded(int, 1), default=10_000,
                        help="total request budget (default: 10000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default: 0)")
    parser.add_argument("--arrival", default="poisson",
                        choices=("poisson", "burst", "closed"),
                        help="arrival model (default: poisson)")
    parser.add_argument("--rate", type=bounded(float, 0, exclusive=True),
                        default=None,
                        help="open-loop arrival rate in jobs/s "
                             "(default: derived from --utilization)")
    parser.add_argument("--utilization",
                        type=bounded(float, 0, exclusive=True), default=0.7,
                        help="target offered load when deriving rate/think "
                             "time (default: 0.7)")
    parser.add_argument("--burst-factor", type=bounded(float, 1), default=4.0,
                        help="MMPP ON-state rate multiplier (default: 4)")
    parser.add_argument("--on-fraction",
                        type=bounded(float, 0, 1, exclusive=True),
                        default=0.25,
                        help="MMPP ON-state time fraction (default: 0.25)")
    parser.add_argument("--clients", type=bounded(int, 1), default=8,
                        help="closed-loop client count (default: 8)")
    parser.add_argument("--think", type=float, default=None,
                        help="closed-loop mean think time in seconds "
                             "(default: derived from --utilization)")
    parser.add_argument("--tenants", type=_parse_tenants, default=None,
                        metavar="SPEC",
                        help="explicit mix as name:app:size:slo[:w[:share]]"
                             ",... (default: a seeded 3-tenant mix)")
    parser.add_argument("--n-tenants", type=bounded(int, 1), default=3,
                        help="tenants in the default seeded mix (default: 3)")
    parser.add_argument("--machine", default="default",
                        choices=sorted(MACHINE_PRESETS),
                        help="machine preset (default: default)")
    parser.add_argument("--depth", type=bounded(int, 1), default=64,
                        help="per-tenant admission queue depth (default: 64)")
    parser.add_argument("--inflight", type=bounded(int, 1), default=4,
                        help="max concurrently executing jobs (default: 4)")
    parser.add_argument("--faults", type=int, default=None, metavar="SEED",
                        help="install a seeded fault schedule (composes the "
                             "fault injector)")
    parser.add_argument("--fault-n", type=int, default=3,
                        help="faults in the --faults schedule (default: 3)")
    parser.add_argument("--jitter-seed", type=int, default=None,
                        help="arm same-instant interleave jitter")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON "
                             "('-' for stdout)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="also export a Chrome trace of the run")
    parser.add_argument("--max-shed-rate", type=float, default=None,
                        help="fail (exit 1) if the overall shed rate "
                             "exceeds this fraction")
    parser.add_argument("--strict", action="store_true",
                        help="raise at the first invariant violation")
    args = parser.parse_args(argv)

    config = ServeConfig(
        seed=args.seed,
        requests=args.requests,
        arrival=args.arrival,
        rate=args.rate,
        utilization=args.utilization,
        burst_factor=args.burst_factor,
        on_fraction=args.on_fraction,
        clients=args.clients,
        think_time=args.think,
        tenants=tuple(args.tenants) if args.tenants else (),
        n_tenants=args.n_tenants,
        machine=args.machine,
        max_queue_depth=args.depth,
        max_inflight=args.inflight,
        fault_seed=args.faults,
        fault_n=args.fault_n,
        jitter_seed=args.jitter_seed,
    )

    began = time.perf_counter()
    report = run_serve(config, trace_path=args.trace, strict=args.strict)
    wall = time.perf_counter() - began

    print(f"serve: {args.requests} requests, arrival={args.arrival}, "
          f"seed={args.seed}, machine={args.machine}")
    print(report.format_table())
    print(f"coherence: {'OK' if report.ok else 'VIOLATIONS'} "
          f"({report.checks} checks)  [wall time: {wall:.1f}s]")
    for violation in report.violations:
        print(f"  - {violation}", file=sys.stderr)

    if args.json is not None:
        payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            parent = os.path.dirname(args.json)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print(f"report written to {args.json}")
    if args.trace is not None:
        print(f"chrome trace written to {args.trace}")

    if not report.ok:
        return 1
    if (args.max_shed_rate is not None
            and report.totals["shed_rate"] > args.max_shed_rate):
        print(
            f"shed-rate gate breached: "
            f"{report.totals['shed_rate']:.4f} > {args.max_shed_rate}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
