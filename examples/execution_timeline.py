#!/usr/bin/env python
"""Visualize a cooperative execution schedule as an ASCII Gantt chart.

Shows what the paper's §5.4/§5.5 machinery buys: while the GPU kernel runs
on the application queue, CPU subkernels execute concurrently and their
results stream over the dedicated `hd` queue; read-back rides the `dh`
queue. Everything overlaps.

Run:  python examples/execution_timeline.py [benchmark]
"""

import sys

from repro.core import FluidiCLRuntime
from repro.harness.timeline import render_gantt
from repro.hw import build_machine
from repro.polybench import make_app


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "syrk"
    app = make_app(name, "paper")

    machine = build_machine(trace=True)  # record every command
    runtime = FluidiCLRuntime(machine)
    result = app.execute(runtime)
    runtime.drain()

    print(f"{name.upper()}: {result.elapsed * 1e3:.2f} ms under FluidiCL "
          f"(correct={result.correct})\n")
    for record in runtime.records:
        print(f"  {record.summary()}")

    spans = machine.tracer.command_spans()
    print()
    print(render_gantt(spans))

    gpu_kernels = [
        s for s in spans
        if s.track == "fluidicl-app" and s.attrs["type"] == "ndrange_kernel"
    ]
    hd_writes = [
        s for s in spans
        if s.track == "fluidicl-hd" and s.attrs["type"] == "write_buffer"
    ]
    overlapped = sum(k.overlap(t) for k in gpu_kernels for t in hd_writes)
    shipped = sum(t.duration for t in hd_writes)
    if shipped:
        print(f"\n  CPU->GPU result shipping overlapped with GPU compute: "
              f"{overlapped / shipped:.0%} of transfer time hidden")


if __name__ == "__main__":
    main()
