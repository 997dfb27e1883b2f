#!/usr/bin/env python
"""Quickstart: run an OpenCL-style program cooperatively on CPU+GPU.

This is the 30-second tour: write a single-device host program once
(against the `AbstractRuntime` API), then execute it unchanged on

* the GPU alone,
* the CPU alone,
* FluidiCL, which transparently spreads every kernel across both.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import FluidiCLRuntime
from repro.hw import build_machine
from repro.hw.specs import DeviceKind
from repro.ocl import SingleDeviceRuntime
from repro.polybench import GemmApp


def main() -> None:
    # GEMM: C = alpha*A*B + beta*C at 1024x1024.
    app = GemmApp(n=1024)
    inputs = app.fresh_inputs()

    runtimes = {
        "GPU only": lambda m: SingleDeviceRuntime(m, DeviceKind.GPU),
        "CPU only": lambda m: SingleDeviceRuntime(m, DeviceKind.CPU),
        "FluidiCL": FluidiCLRuntime,
    }

    print(f"GEMM ({app.n}x{app.n}), identical host program on three runtimes\n")
    times = {}
    for label, factory in runtimes.items():
        machine = build_machine()  # fresh simulated node per run
        runtime = factory(machine)
        result = app.execute(runtime, inputs=inputs)
        times[label] = result.elapsed
        status = "ok" if result.correct else "WRONG RESULTS"
        print(f"  {label:10s} {result.elapsed * 1e3:8.2f} ms   [{status}]")

        if isinstance(runtime, FluidiCLRuntime):
            record = runtime.records[0]
            print(f"\n  FluidiCL work split for kernel {record.name!r}:")
            print(f"    work-groups executed on GPU: {record.gpu_groups}")
            print(f"    work-groups credited to CPU: {record.cpu_groups}"
                  f"  ({record.cpu_share:.0%})")
            print(f"    CPU subkernels launched:     {record.subkernels}"
                  f"  (chunks: {record.chunks})")
            print(f"    commit path:                 {record.path}")

    best_single = min(times["GPU only"], times["CPU only"])
    print(f"\n  FluidiCL vs best single device: "
          f"{best_single / times['FluidiCL']:.2f}x")


if __name__ == "__main__":
    main()
