"""The one entry point that runs an application, and the timers on it.

The harness experiments (all but ``ext_load``, see DESIGN.md), ``harness
trace`` and the bench app matrix run apps through :func:`measure_app`.
The simulator is deterministic, so a single run per configuration
replaces the paper's average-of-ten methodology.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.starpu import PerfModel, SoclRuntime, calibrate_perfmodel
from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.faults import FaultSchedule, install_faults
from repro.hw.interconnect import InterconnectSpec
from repro.hw.machine import Machine, build_machine
from repro.hw.specs import DeviceKind, DeviceSpec
from repro.ocl.runtime import AbstractRuntime, SingleDeviceRuntime
from repro.polybench.common import AppResult, PolybenchApp

__all__ = [
    "AppRun",
    "measure_app",
    "first_kernel_strike_time",
    "single_device_times",
    "fluidicl_time",
    "socl_time",
    "kernel_device_times",
]

RuntimeFactory = Callable[[Machine], AbstractRuntime]
#: a preset name from ``MACHINE_PRESETS`` or an explicit device list
MachineSpec = Union[str, Sequence[Tuple[DeviceSpec, InterconnectSpec]]]


class AppRun(NamedTuple):
    """A finished run: the app's result, its runtime and its node."""

    result: AppResult
    runtime: AbstractRuntime
    machine: Machine


def measure_app(app: PolybenchApp,
                factory: Optional[RuntimeFactory] = None,
                machine: MachineSpec = "default",
                inputs: Optional[Dict[str, np.ndarray]] = None,
                check: bool = True,
                faults: Optional[FaultSchedule] = None,
                trace: bool = False) -> AppRun:
    """Run ``app`` once on a fresh node and return the finished run.

    ``machine`` is a preset name from ``MACHINE_PRESETS`` or a device
    list.  The runtime is ``factory(node)``, FluidiCL by default;
    ``faults`` is installed on its platform before the host program
    starts, and ``trace`` leaves a recorder on the returned machine.  A
    FluidiCL runtime is drained, so its counters are final; with
    ``check``, wrong outputs raise.
    """
    if isinstance(machine, str):
        node = build_machine(preset=machine, trace=trace)
    else:
        node = build_machine(devices=machine, trace=trace)
    runtime = FluidiCLRuntime(node) if factory is None else factory(node)
    if faults is not None:
        install_faults(runtime.platform, faults)
    result = app.execute(runtime, inputs=inputs, check=check)
    if check and not result.correct:
        raise AssertionError(
            f"{app.name} on {type(runtime).__name__}: wrong results "
            f"(err={result.max_relative_error:.2e})"
        )
    if isinstance(runtime, FluidiCLRuntime):
        runtime.drain()
    return AppRun(result, runtime, node)


def first_kernel_strike_time(run: AppRun) -> float:
    """Midpoint of the first kernel's GPU execution span in a finished
    FluidiCL run.

    A fault that should exercise the failover machinery must strike while
    a kernel is actually executing; outside that window a lost device may
    hold the sole copy of committed data, which no runtime can recover
    (see DESIGN.md on the recoverability window).
    """
    begin, end = run.runtime.records[0].gpu_span
    return begin + 0.5 * (end - begin)


def single_device_times(app: PolybenchApp,
                        inputs: Optional[Dict[str, np.ndarray]] = None,
                        check: bool = True,
                        machine: MachineSpec = "default") -> Dict[str, float]:
    """{"gpu": seconds, "cpu": seconds} using the vendor runtimes directly."""
    def elapsed(kind: DeviceKind) -> float:
        return measure_app(
            app, lambda m: SingleDeviceRuntime(m, kind),
            machine=machine, inputs=inputs, check=check,
        ).result.elapsed

    return {"gpu": elapsed(DeviceKind.GPU), "cpu": elapsed(DeviceKind.CPU)}


def fluidicl_time(app: PolybenchApp,
                  config: Optional[FluidiCLConfig] = None,
                  inputs: Optional[Dict[str, np.ndarray]] = None,
                  check: bool = True) -> float:
    """Total running time of ``app`` under FluidiCL."""
    return measure_app(
        app, lambda m: FluidiCLRuntime(m, config=config),
        inputs=inputs, check=check,
    ).result.elapsed


def socl_time(app: PolybenchApp, scheduler: str = "eager",
              calibration_runs: int = 10,
              inputs: Optional[Dict[str, np.ndarray]] = None,
              check: bool = True) -> float:
    """Total running time under SOCL.

    For ``dmda`` the perf model is first calibrated by running the
    application ``calibration_runs`` times (paper: "at least ten"), and the
    reported time is the final, calibrated run.
    """
    model = PerfModel()
    if scheduler == "dmda":
        def run_once(sched_name: str, m: PerfModel, offset: int = 0) -> None:
            measure_app(
                app, lambda node: SoclRuntime(node, sched_name, model=m,
                                              scheduler_offset=offset),
                inputs=inputs, check=False,
            )

        calibrate_perfmodel(run_once, model, runs=calibration_runs)
    return measure_app(
        app, lambda m: SoclRuntime(m, scheduler, model=model),
        inputs=inputs, check=check,
    ).result.elapsed


def kernel_device_times(app: PolybenchApp, kind: DeviceKind,
                        inputs: Optional[Dict[str, np.ndarray]] = None) -> Dict[str, float]:
    """Per-kernel execution seconds on one device (for Table 1).

    Uses profiling events from a traced single-device run; repeated
    launches of the same kernel accumulate.
    """
    run = measure_app(app, lambda m: SingleDeviceRuntime(m, kind),
                      inputs=inputs, check=False, trace=True)
    times: Dict[str, float] = {}
    for span in run.machine.tracer.command_spans():
        name = span.attrs.get("kernel")
        if name is None:
            continue
        times[name] = times.get(name, 0.0) + span.duration
    return times
