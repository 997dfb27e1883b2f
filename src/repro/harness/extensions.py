"""Experiments beyond the paper's figures.

These quantify design choices the paper describes but does not plot
(buffer pooling §6.1, data-location tracking §6.2, CPU work-group
splitting §6.3), extend the evaluation to four extra Polybench apps, and
exercise the §7 claim that other same-node accelerators (Xeon Phi) slot in
as the second device.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.harness.report import ExperimentResult, geomean
from repro.harness.runner import (
    first_kernel_strike_time,
    fluidicl_time,
    measure_app,
    single_device_times,
)
from repro.hw.machine import MACHINE_PRESETS, build_machine
from repro.hw.specs import PCIE_GEN2_X16, XEON_PHI_5110P, DeviceKind
from repro.ocl.runtime import SingleDeviceRuntime
from repro.polybench.common import DEFAULT_RTOL
from repro.polybench.suite import EXTENDED_SUITE, PAPER_SUITE, make_app

__all__ = [
    "EXTENSION_EXPERIMENTS",
    "what_if_machine_sweep",
    "what_if_system_load",
    "ablation_buffer_pool",
    "ablation_location_tracking",
    "ablation_wg_split",
    "extended_overall",
    "what_if_xeon_phi",
    "fault_resilience",
]


def _toggle_ablation(experiment_id: str, title: str, off_config: FluidiCLConfig,
                     label: str, benchmarks=None,
                     scale: str = "paper") -> ExperimentResult:
    """Shared shape: FluidiCL with one optimization off, normalized to on."""
    benchmarks = list(benchmarks or PAPER_SUITE)
    result = ExperimentResult(
        experiment_id, title, ["benchmark", label, "all_opt"],
    )
    ratios = []
    for name in benchmarks:
        app = make_app(name, scale)
        inputs = app.fresh_inputs()
        on = fluidicl_time(app, inputs=inputs)
        off = fluidicl_time(app, config=off_config, inputs=inputs)
        result.rows.append([name, off / on, 1.0])
        ratios.append(off / on)
    result.notes.append(f"geomean cost of disabling: {geomean(ratios):.3f}x")
    return result


def ablation_buffer_pool(scale: str = "paper") -> ExperimentResult:
    """§6.1: allocate/free the helper buffers every kernel instead of
    pooling them.  Multi-kernel benchmarks pay repeatedly."""
    return _toggle_ablation(
        "ext_pool", "Cost of disabling the GPU buffer pool (section 6.1)",
        FluidiCLConfig(use_buffer_pool=False), "no_pool", scale=scale,
    )


def ablation_wg_split(sizes=((2048, 512), (4096, 512), (4096, 1024))) -> ExperimentResult:
    """§6.3: without work-group splitting, small CPU allocations idle cores.

    The paper's motivating case is "a small number of long running
    work-groups": GESUMMV variants with a handful of huge work-groups
    (fewer groups than the CPU's eight hardware threads per allocation).
    """
    result = ExperimentResult(
        "ext_wgsplit",
        "Cost of disabling CPU work-group splitting (section 6.3)",
        ["workload", "groups", "no_wg_split", "all_opt"],
    )
    ratios = []
    from repro.polybench.gesummv import GesummvApp

    for n, rows_per_group in sizes:
        app = GesummvApp(n=n, rows_per_group=rows_per_group)
        inputs = app.fresh_inputs()
        on = fluidicl_time(app, inputs=inputs)
        off = fluidicl_time(
            app, config=FluidiCLConfig(cpu_wg_split=False), inputs=inputs
        )
        groups = n // rows_per_group
        result.rows.append([f"gesummv({n})", groups, off / on, 1.0])
        ratios.append(off / on)
    result.notes.append(f"geomean cost of disabling: {geomean(ratios):.3f}x")
    result.notes.append(
        "with splitting, the handful of giant work-groups spreads across "
        "all eight hardware threads instead of occupying a few"
    )
    return result


def ablation_location_tracking(n: int = 2048) -> ExperimentResult:
    """§6.2: without location tracking, host reads of data that already
    lives CPU-side travel over PCIe anyway.

    Measured two ways: total time, and the PCIe device-to-host bytes the
    optimization avoids (the paper's mechanism, directly observable).
    """
    from repro.harness.workloads import MatrixScaleApp

    devices = [spec.name for spec, _link in MACHINE_PRESETS["default"]]
    result = ExperimentResult(
        "ext_location",
        "Cost of disabling data-location tracking (section 6.2)",
        ["config", "seconds", "pcie_d2h_bytes"]
        + [f"reads_from[{d}]" for d in devices],
    )
    app = MatrixScaleApp(n=n)
    inputs = app.fresh_inputs()
    rows = {}
    for label, config in (
        ("tracking_on", FluidiCLConfig()),
        ("tracking_off", FluidiCLConfig(location_tracking=False)),
    ):
        run = measure_app(app, lambda m: FluidiCLRuntime(m, config=config),
                          inputs=inputs)
        runtime = run.runtime
        d2h = runtime.gpu_device.stats["bytes_d2h"]
        result.rows.append(
            [label, run.result.elapsed, d2h]
            + [runtime.stats.extra[f"reads_from[{d}]"] for d in devices]
        )
        rows[label] = (run.result.elapsed, d2h)
    saved = rows["tracking_off"][1] - rows["tracking_on"][1]
    result.notes.append(
        f"location tracking avoids {saved / 2**20:.1f} MiB of PCIe reads "
        f"and {rows['tracking_off'][0] / rows['tracking_on'][0]:.3f}x time"
    )
    return result


def extended_overall(scale: str = "paper") -> ExperimentResult:
    """Fig. 13's experiment over the four extension benchmarks."""
    extras = [name for name in EXTENDED_SUITE if name not in PAPER_SUITE]
    result = ExperimentResult(
        "ext_suite",
        "Extension benchmarks (normalized to best single device)",
        ["benchmark", "cpu", "gpu", "fluidicl"],
    )
    over_best = []
    for name in extras:
        app = make_app(name, scale)
        inputs = app.fresh_inputs()
        single = single_device_times(app, inputs=inputs)
        fcl = fluidicl_time(app, inputs=inputs)
        best = min(single.values())
        result.rows.append(
            [name, single["cpu"] / best, single["gpu"] / best, fcl / best]
        )
        over_best.append(best / fcl)
    result.notes.append(
        f"geomean vs best single device: {geomean(over_best):.2f}x"
    )
    return result


def what_if_xeon_phi(scale: str = "small", benchmarks=("syrk", "syr2k", "gemm")) -> ExperimentResult:
    """§7 what-if: swap the Xeon W3550 for a Xeon Phi 5110P over PCIe.

    FluidiCL's protocol is device-agnostic on the "CPU" side: the Phi has
    far more parallel slack but pays PCIe for every data/status message,
    which the status-follows-data accounting absorbs automatically.
    """
    result = ExperimentResult(
        "ext_phi",
        "Second device swapped for a Xeon Phi 5110P (times in ms)",
        ["benchmark", "gpu_only", "fluidicl+w3550", "fluidicl+phi"],
    )
    gpu, _cpu = MACHINE_PRESETS["default"]
    phi_machine = [gpu, (XEON_PHI_5110P, PCIE_GEN2_X16)]
    for name in benchmarks:
        app = make_app(name, scale)
        inputs = app.fresh_inputs()
        gpu_only = single_device_times(app, inputs=inputs)["gpu"]
        fcl_cpu = fluidicl_time(app, inputs=inputs)
        fcl_phi = measure_app(app, machine=phi_machine,
                              inputs=inputs).result.elapsed
        result.rows.append([
            name, gpu_only * 1e3, fcl_cpu * 1e3, fcl_phi * 1e3,
        ])
    result.notes.append(
        "the host program and runtime are unchanged; only the machine "
        "description differs"
    )
    return result


def what_if_system_load(duties=(0.0, 0.5, 0.85), benchmark: str = "syrk",
                        scale: str = "paper") -> ExperimentResult:
    """§1's "adapt to system load" claim, made measurable.

    A competing process duty-cycles the CPU's compute engine while
    FluidiCL runs; the runtime observes slower subkernels and shifts the
    balance toward the GPU — results stay correct throughout.
    """
    from repro.harness.loadgen import BackgroundLoad

    result = ExperimentResult(
        "ext_load",
        f"Adaptation to background CPU load ({benchmark})",
        ["cpu_load", "seconds", "cpu_share", "correct"],
    )
    app = make_app(benchmark, scale)
    inputs = app.fresh_inputs()
    shares = []
    for duty in duties:
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        load = BackgroundLoad(runtime.cpu_device, duty=duty)
        app_result = app.execute(runtime, inputs=inputs)
        load.stop()
        share = runtime.records[-1].cpu_share
        shares.append(share)
        result.rows.append([
            f"{duty:.0%}", app_result.elapsed, share, app_result.correct,
        ])
    result.notes.append(
        "the CPU's credited share shrinks as external load grows; no "
        "configuration changes, no recalibration"
    )
    return result


def what_if_machine_sweep(gpu_scales=(0.25, 0.5, 1.0, 2.0, 4.0),
                          benchmark: str = "syrk",
                          scale: str = "paper") -> ExperimentResult:
    """The paper's portability claim ("completely portable across different
    machines"): sweep the GPU's relative horsepower across a 16x range and
    check FluidiCL tracks — or beats — the better device on every machine,
    with no per-machine tuning.
    """
    result = ExperimentResult(
        "ext_machines",
        f"FluidiCL across machines: GPU scaled 0.25x..4x ({benchmark})",
        ["gpu_scale", "cpu_ms", "gpu_ms", "fluidicl_ms", "vs_best"],
    )
    app = make_app(benchmark, scale)
    inputs = app.fresh_inputs()
    (gpu, gpu_link), cpu = MACHINE_PRESETS["default"]
    for factor in gpu_scales:
        devices = [(gpu.scaled(factor), gpu_link), cpu]
        single = single_device_times(app, inputs=inputs, check=False,
                                     machine=devices)
        fcl = measure_app(app, machine=devices, inputs=inputs).result.elapsed
        best = min(single.values())
        result.rows.append([
            f"{factor:g}x", single["cpu"] * 1e3, single["gpu"] * 1e3,
            fcl * 1e3, fcl / best,
        ])
    worst = max(row[4] for row in result.rows)
    result.notes.append(
        f"worst case across machines: {worst:.3f}x of the best single "
        "device — same binary, no retuning"
    )
    return result


def fault_resilience(scale: str = "test", benchmarks=None) -> ExperimentResult:
    """Graceful degradation: inject one fault per class into every
    benchmark and require outputs bitwise equal to the fault-free
    single-device GPU run on the same inputs.

    Each fault strikes at the midpoint of the first kernel's GPU execution
    span (learned from a fault-free reference run) — the window in which a
    device loss is recoverable, because no lost device yet holds the sole
    copy of committed data.  The reference run doubles as the timing
    baseline for the reported slowdown.  The transfer fault arms two
    transient failures in each direction on the anchor, and a row in
    which none of them fired raises: it would check nothing.
    """
    from repro.faults import FaultKind, FaultSchedule

    benchmarks = list(benchmarks or PAPER_SUITE)
    result = ExperimentResult(
        "ext_faults",
        "Graceful degradation under injected faults (scale: %s)" % scale,
        ["benchmark", "fault", "strike_ms", "correct", "failovers", "retries",
         "pending", "slowdown"],
    )
    cases = [
        ("stall", FaultKind.DEVICE_STALL, "gpu"),
        ("gpu-loss", FaultKind.DEVICE_LOSS, "gpu"),
        ("cpu-loss", FaultKind.DEVICE_LOSS, "cpu"),
        ("transfer-fault", FaultKind.TRANSFER_FAULT, "gpu"),
        ("degrade", FaultKind.LINK_DEGRADE, "gpu"),
    ]
    for name in benchmarks:
        app = make_app(name, scale)
        inputs = app.fresh_inputs()
        expected = measure_app(
            app, lambda m: SingleDeviceRuntime(m, DeviceKind.GPU),
            inputs=inputs,
        ).result.outputs

        base = measure_app(app, inputs=inputs)
        strike = first_kernel_strike_time(base)
        for label, kind, device in cases:
            run = measure_app(
                app, inputs=inputs,
                faults=FaultSchedule.representative(kind, strike, device),
            )
            for key, want in expected.items():
                if not np.array_equal(run.result.outputs[key], want):
                    raise AssertionError(
                        f"{name} under {label}: {key!r} differs from the "
                        "fault-free single-device GPU run"
                    )
            runtime = run.runtime
            healths = [runtime.gpu_device.health, runtime.cpu_device.health]
            retries = sum(health.transfer_retries for health in healths)
            pending = sum(health.pending_transfer_faults(direction)
                          for health in healths
                          for direction in ("h2d", "d2h"))
            if label == "transfer-fault" and retries == 0:
                raise AssertionError(
                    f"{name} under {label}: no transfer retried, so the "
                    "armed faults never fired"
                )
            result.rows.append([
                name, label, strike * 1e3, run.result.correct,
                runtime.stats.extra["failovers"], retries, pending,
                run.result.elapsed / base.result.elapsed,
            ])
    result.notes.append(
        "strike_ms is the midpoint of the fault-free run's first-kernel GPU "
        "span, so a row moves whenever the fault-free schedule moves, with "
        "the fault handling unchanged"
    )
    result.notes.append(
        "transfer-fault arms two transient H2D and two transient D2H "
        "failures on the GPU at the strike; a row in which no transfer "
        "retried raises, and 'pending' counts the armed failures that no "
        "transfer consumed before the run ended"
    )
    result.notes.append(
        "every faulted run's outputs are compared bitwise with the "
        "fault-free single-device GPU run on the same inputs, and "
        "'correct' is the NumPy-reference check (relative error at most "
        f"{DEFAULT_RTOL:g}); a failed check raises instead of producing a "
        "row"
    )
    return result


#: extension experiment id -> zero-argument callable (default settings)
EXTENSION_EXPERIMENTS = {
    "ext_machines": what_if_machine_sweep,
    "ext_pool": ablation_buffer_pool,
    "ext_wgsplit": ablation_wg_split,
    "ext_location": ablation_location_tracking,
    "ext_suite": extended_overall,
    "ext_phi": what_if_xeon_phi,
    "ext_load": what_if_system_load,
    "ext_faults": fault_resilience,
}
