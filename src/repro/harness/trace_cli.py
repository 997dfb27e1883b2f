"""``python -m repro.harness trace``: run a workload, export its timeline.

Runs one Polybench application under the FluidiCL runtime on a traced
machine (any ``MACHINE_PRESETS`` node, one Gantt lane per front), then
writes the typed event stream as Chrome-trace JSON (loadable
in ``chrome://tracing`` / Perfetto) and prints the ASCII Gantt plus the
run's counters (``runtime.stats.extra``, plus ``faults_injected`` counted
from the ``fault_injected`` events).  The JSON and the Gantt read the
same :class:`~repro.obs.recorder.EventRecorder` stream.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional

from repro.core.runtime import FluidiCLRuntime
from repro.faults import FaultKind, FaultSchedule
from repro.harness.check_cli import bounded
from repro.harness.runner import first_kernel_strike_time, measure_app
from repro.harness.timeline import render_gantt
from repro.hw.machine import MACHINE_PRESETS
from repro.obs.chrome import write_chrome_trace
from repro.obs.events import EventKind
from repro.polybench.suite import EXTENDED_SUITE, SCALES, make_app

__all__ = ["trace_main"]

#: generated artifacts live under ./out/ (git-ignored), not the repo root
DEFAULT_TRACE_OUT = os.path.join("out", "fluidicl.trace.json")


def _collect_metrics(runtime: FluidiCLRuntime, recorder) -> dict:
    metrics = dict(runtime.stats.extra)
    metrics.update(
        faults_injected=sum(e.category == "fault_injected"
                            for e in recorder.by_kind(EventKind.FAULT)),
        pool_hits=runtime.pool.hits,
        pool_misses=runtime.pool.misses,
        kernels_enqueued=runtime.stats.kernels_enqueued,
        host_writes=runtime.stats.writes,
        host_reads=runtime.stats.reads,
    )
    return metrics


def trace_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description=(
            "Run one benchmark under FluidiCL and export its execution "
            "timeline as Chrome-trace JSON (chrome://tracing / Perfetto)."
        ),
    )
    parser.add_argument(
        "--app", default="gesummv", choices=EXTENDED_SUITE,
        help="benchmark to run (default: gesummv)",
    )
    parser.add_argument(
        "--scale", default="small", choices=sorted(SCALES),
        help="problem-size preset (default: small)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny run for CI: forces --scale test",
    )
    parser.add_argument(
        "--machine", default="default", choices=sorted(MACHINE_PRESETS),
        help="machine preset to run on (default: default)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_TRACE_OUT, metavar="PATH",
        help=f"Chrome-trace JSON output path (default: {DEFAULT_TRACE_OUT})",
    )
    parser.add_argument(
        "--no-gantt", action="store_true",
        help="skip printing the ASCII Gantt chart",
    )
    parser.add_argument(
        "--faults", default=None, metavar="KIND",
        choices=sorted(k.value for k in FaultKind),
        help=(
            "inject one fault of this class (device-stall, device-loss, "
            "transfer-fault, link-degrade) and watch the runtime degrade "
            "gracefully in the exported trace"
        ),
    )
    parser.add_argument(
        "--fault-at", type=bounded(float, 0), default=None,
        metavar="SECONDS",
        help=(
            "simulated time the fault strikes (default: midpoint of the "
            "first kernel's GPU span, learned from a fault-free run)"
        ),
    )
    parser.add_argument(
        "--fault-device", default="gpu", metavar="DEVICE",
        help=(
            "device the fault targets: gpu, cpu or a device name of the "
            "--machine preset, e.g. 'Tesla C2070 #2' (default: gpu)"
        ),
    )
    args = parser.parse_args(argv)
    devices = ["gpu", "cpu"] + [
        spec.name for spec, _link in MACHINE_PRESETS[args.machine]
    ]
    if args.fault_device not in devices:
        parser.error(
            f"argument --fault-device: invalid choice: "
            f"{args.fault_device!r} (choose from "
            f"{', '.join(map(repr, devices))})"
        )
    scale = "test" if args.smoke else args.scale
    app = make_app(args.app, scale)

    schedule = None
    if args.faults is not None:
        strike = args.fault_at
        if strike is None:
            strike = first_kernel_strike_time(
                measure_app(app, machine=args.machine, check=False))
        schedule = FaultSchedule.representative(args.faults, strike,
                                                args.fault_device)

    result, runtime, machine = measure_app(app, machine=args.machine,
                                           faults=schedule, trace=True)
    recorder = machine.tracer
    metrics = _collect_metrics(runtime, recorder)
    trace = write_chrome_trace(args.out, recorder,
                               process_name=f"fluidicl:{args.app}",
                               metrics=metrics)

    print(f"== trace: {args.app} @ {scale} on {args.machine} "
          f"({result.elapsed * 1e3:.2f} ms simulated, "
          f"correct={result.correct}) ==")
    if schedule is not None:
        for spec in schedule:
            print(f"  fault: {spec.describe()}")
        resilience = {
            k: metrics[k]
            for k in ("faults_injected", "failovers", "watchdog_trips")
        }
        # armed transfer failures the run never consumed
        resilience["pending_transfer_faults"] = {
            device.name: {d: device.health.pending_transfer_faults(d)
                          for d in ("h2d", "d2h")}
            for device in runtime.platform.devices
        }
        resilience["transfer_retries"] = sum(
            device.health.transfer_retries
            for device in runtime.platform.devices
        )
        print(f"  resilience: {resilience}")
    for record in runtime.records:
        print(f"  {record.summary()}")
    if not args.no_gantt:
        print(render_gantt(recorder.command_spans()))
    blocked = {}
    for span in recorder.event_spans(EventKind.POOL):
        blocked[span.track] = blocked.get(span.track, 0.0) + span.duration
    if blocked:
        print("  blocked on allocation: " + ", ".join(
            f"{track} {seconds * 1e3:.3f} ms"
            for track, seconds in blocked.items()))
    print(f"  events: {len(recorder.events)} typed "
          f"({len(trace['traceEvents'])} trace entries) -> {args.out}")
    interesting = (
        "merges", "merges_skipped", "aborts_declined",
        "stale_dh_discards", "readbacks_covered",
        "subkernels_launched", "status_messages", "input_refreshes",
    ) + tuple(f"reads_from[{d.name}]" for d in runtime.platform.devices)
    shown = {k: metrics[k] for k in interesting if k in metrics}
    print(f"  metrics: {shown}")
    return 0
