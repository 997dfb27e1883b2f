"""``python -m repro.harness scenarios`` — named, seeded demo scenarios.

Where the fuzzer (``check``) *draws* configurations, a scenario *names*
one: a hand-picked point in the same space — app x machine preset x fault
schedule x chunker settings — that demonstrates a specific runtime
behavior in a single reproducible command.  Every scenario is just a
:class:`~repro.check.fuzzer.FuzzConfig`, so it runs through the exact
``run_config`` pipeline the fuzzer uses: preflight lint, a traced
machine, the :class:`~repro.check.monitor.CoherenceMonitor` attached, the
fault injector armed, and the NumPy oracle checking the result.

Usage::

    python -m repro.harness scenarios --list
    python -m repro.harness scenarios spmv-gpu-loss-cpu2gpu
    python -m repro.harness scenarios --all --trace-dir out/scenarios

Exit status is 1 if any selected scenario fails (invariant violation,
wrong result or runtime crash); graceful ``device-lost`` outcomes under
loss schedules count as passes, exactly as in the fuzzer.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.check.fuzzer import CheckResult, FuzzConfig, run_config
from repro.faults.schedule import FaultKind, FaultSpec

__all__ = ["Scenario", "SCENARIOS", "scenarios_main"]


@dataclass(frozen=True)
class Scenario:
    """A named, fully pinned fuzz configuration plus its story."""

    name: str
    description: str
    config: FuzzConfig


def _scenario_list() -> List[Scenario]:
    return [
        Scenario(
            name="spmv-skew-default",
            description=(
                "SpMV with power-law row skew on the paper's CPU+GPU "
                "pair; tiny initial chunk so the adaptive chunker must "
                "grow through orders-of-magnitude per-group cost variance"
            ),
            config=FuzzConfig(
                seed=9001, app="spmv", size=256,
                initial_chunk_fraction=0.02, chunk_step_fraction=0.10,
            ),
        ),
        Scenario(
            name="spmv-gpu-loss-cpu2gpu",
            description=(
                "SpMV on cpu+2gpu; the anchor GPU dies mid-run, the "
                "surviving GPU + CPU complete the skewed NDRange"
            ),
            config=FuzzConfig(
                seed=9002, app="spmv", size=256, machine="cpu+2gpu",
                jitter_seed=11,
                faults=(FaultSpec(kind=FaultKind.DEVICE_LOSS, at=2e-4,
                                  device="Tesla C2070"),),
            ),
        ),
        Scenario(
            name="histogram-tail-biglittle",
            description=(
                "histogram on the asymmetric big.little GPU pair; the "
                "4-group merge launch stresses the tiny-NDRange front "
                "protocol"
            ),
            config=FuzzConfig(
                seed=9003, app="histogram", size=256, machine="big.little",
                initial_chunk_fraction=0.5, chunk_step_fraction=0.4,
            ),
        ),
        Scenario(
            name="bfs-frontier-default",
            description=(
                "BFS frontier expansion; a data-dependent NDRange per "
                "level with same-instant interleave jitter armed"
            ),
            config=FuzzConfig(
                seed=9004, app="bfs", size=128, jitter_seed=7,
            ),
        ),
        Scenario(
            name="bfs-stall-cpu3gpu",
            description=(
                "BFS on cpu+3gpu with a mid-run stall of the second GPU; "
                "the level loop keeps draining around the frozen device"
            ),
            config=FuzzConfig(
                seed=9005, app="bfs", size=128, machine="cpu+3gpu",
                faults=(FaultSpec(kind=FaultKind.DEVICE_STALL, at=1e-4,
                                  device="Tesla C2070 #2", duration=5e-4),),
            ),
        ),
        Scenario(
            name="scan-cpu-loss",
            description=(
                "prefix scan on cpu+2gpu; the CPU front is lost between "
                "upsweep and downsweep, the GPUs finish both phases"
            ),
            config=FuzzConfig(
                seed=9006, app="scan", size=256, machine="cpu+2gpu",
                faults=(FaultSpec(kind=FaultKind.DEVICE_LOSS, at=2e-4,
                                  device="Xeon W3550"),),
            ),
        ),
        Scenario(
            name="scan-transfer-retry",
            description=(
                "prefix scan with two consecutive device-to-host DMA "
                "failures; the transfer layer retries through them"
            ),
            config=FuzzConfig(
                seed=9007, app="scan", size=256,
                faults=(FaultSpec(kind=FaultKind.TRANSFER_FAULT, at=0.0,
                                  device="gpu", direction="d2h", count=2),),
            ),
        ),
        Scenario(
            name="2mm-pipeline-linkdegrade",
            description=(
                "the 2mm kernel pipeline under a degraded PCIe link "
                "(x0.25 bandwidth) on cpu+2gpu; transfer-compute overlap "
                "has to absorb the slow interconnect"
            ),
            config=FuzzConfig(
                seed=9008, app="2mm", size=128, machine="cpu+2gpu",
                faults=(FaultSpec(kind=FaultKind.LINK_DEGRADE, at=0.0,
                                  device="Tesla C2070", factor=0.25),),
            ),
        ),
    ]


#: name -> scenario, in presentation order
SCENARIOS: Dict[str, Scenario] = {s.name: s for s in _scenario_list()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness scenarios",
        description=(
            "Run named, seeded demo scenarios (app x machine preset x "
            "fault schedule x chunker settings) through the coherence-"
            "checked fuzzer pipeline."
        ),
    )
    parser.add_argument("names", nargs="*",
                        help="scenario names to run (default: all)")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list the scenarios and exit")
    parser.add_argument("--all", action="store_true",
                        help="run every scenario (the default when no "
                             "names are given)")
    parser.add_argument("--trace-dir", default=None,
                        help="write a Chrome-trace JSON per scenario into "
                             "this directory")
    return parser


def _run_one(scenario: Scenario,
             trace_dir: Optional[str]) -> CheckResult:
    trace_path = None
    if trace_dir is not None:
        trace_path = os.path.join(trace_dir, f"{scenario.name}.trace.json")
    result = run_config(scenario.config, trace_path=trace_path)
    status = "FAIL" if result.failed else result.outcome
    print(f"{scenario.name:28s} {status:11s} checks={result.checks:<5d} "
          f"events={result.events:<6d} wall={result.wall_seconds:.2f}s")
    for violation in result.violations:
        print(f"{'':28s} !! {violation}")
    if result.failed and result.error:
        print(f"{'':28s} !! {result.error}")
    if trace_path is not None:
        print(f"{'':28s} trace: {trace_path}")
    return result


def scenarios_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_only:
        for scenario in SCENARIOS.values():
            cfg = scenario.config
            axes = f"{cfg.app}@{cfg.size} machine={cfg.machine}"
            if cfg.faults:
                axes += f" faults={len(cfg.faults)}"
            print(f"{scenario.name:28s} {axes}")
            print(f"{'':28s} {scenario.description}")
        return 0
    names = args.names or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; "
              f"have {', '.join(SCENARIOS)}")
        return 2
    results = [_run_one(SCENARIOS[n], args.trace_dir) for n in names]
    failed = sum(1 for r in results if r.failed)
    print(f"\n{len(results)} scenario(s), {failed} failed")
    return 1 if failed else 0
