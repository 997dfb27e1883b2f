"""Greedy shrinking of failing fuzz configurations.

When a seed fails — an invariant violation, a wrong result, or a crash —
the raw :class:`~repro.check.fuzzer.FuzzConfig` is usually noisy: faults
that don't matter, jitter that doesn't matter, an app bigger than needed.
:func:`shrink` walks a fixed candidate order (drop faults one by one,
disable jitter, normalize device speeds, reset the runtime record to
``FluidiCLConfig()`` — the chunker pair together, then each other field
that differs — swap to the single-kernel ``gesummv``, halve the problem
size) and greedily accepts any simplification that still fails,
restarting until a fixed point: a *minimal reproducer*.

:func:`reproducer_source` renders that minimal config as a ready-to-paste
pytest case; every record it holds renders as its constructor call with
only the fields that differ from their defaults.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import Callable, Iterator, List, Optional

from repro.check.fuzzer import CheckResult, FuzzConfig, run_config
from repro.core.config import FluidiCLConfig

__all__ = ["ShrinkResult", "shrink", "reproducer_source"]

#: problem-size floor during shrinking; every app accepts multiples of 32
_MIN_SIZE = 64

#: the single-kernel benchmark every app-independent failure reduces to
_SIMPLEST_APP = "gesummv"

#: the runtime knobs reset together to ``FluidiCLConfig()``'s values; every
#: other field of a config's runtime record is reset on its own
_CHUNKER = ("initial_chunk_fraction", "chunk_step_fraction")


@dataclass
class ShrinkResult:
    """Outcome of shrinking one failing configuration."""

    original: FuzzConfig
    minimal: FuzzConfig
    #: the check result of the minimal config (still failing)
    result: CheckResult
    #: total configurations executed while shrinking
    runs: int = 0
    #: human-readable log of accepted simplifications
    steps: List[str] = field(default_factory=list)

    @property
    def reduced(self) -> bool:
        return self.minimal != self.original


def _serve_candidates(config: FuzzConfig) -> Iterator[tuple]:
    """Simplifications of a serving-layer draw, cheapest win first."""
    serve = config.serve
    if serve.fault_seed is not None:
        yield ("drop serve fault schedule",
               replace(config, serve=replace(serve, fault_seed=None,
                                             fault_n=0)))
    if serve.jitter_seed is not None:
        yield ("disable serve interleave jitter",
               replace(config, serve=replace(serve, jitter_seed=None)))
    if serve.machine != "default":
        yield (f"swap serve machine {serve.machine} -> default",
               replace(config, serve=replace(serve, machine="default")))
    if serve.arrival != "poisson":
        yield (f"swap arrival {serve.arrival} -> poisson",
               replace(config, serve=replace(serve, arrival="poisson")))
    if serve.n_tenants > 1 and not serve.tenants:
        yield (f"reduce tenants {serve.n_tenants} -> 1",
               replace(config, serve=replace(serve, n_tenants=1)))
    if serve.max_inflight != 1:
        yield ("reduce max_inflight to 1",
               replace(config, serve=replace(serve, max_inflight=1)))
    half = serve.requests // 2
    if half >= 20:
        yield (f"halve requests {serve.requests} -> {half}",
               replace(config, serve=replace(serve, requests=half)))


def _candidates(config: FuzzConfig) -> Iterator[tuple]:
    """Yield ``(description, simplified_config)`` pairs, cheapest win first."""
    if config.serve is not None:
        yield from _serve_candidates(config)
        return
    for i, fault in enumerate(config.faults):
        remaining = config.faults[:i] + config.faults[i + 1:]
        yield (f"drop fault {fault.kind.value}@{fault.at:.4g}s",
               replace(config, faults=remaining))
    if config.jitter_seed is not None:
        yield "disable interleave jitter", replace(config, jitter_seed=None)
    if config.machine != "default":
        yield (f"swap machine {config.machine} -> default",
               replace(config, machine="default"))
    if config.gpu_scale != 1.0:
        yield "reset gpu_scale to 1.0", replace(config, gpu_scale=1.0)
    if config.cpu_scale != 1.0:
        yield "reset cpu_scale to 1.0", replace(config, cpu_scale=1.0)
    runtime, defaults = config.runtime, FluidiCLConfig()
    chunker = {name: getattr(defaults, name) for name in _CHUNKER}
    if any(getattr(runtime, name) != value for name, value in chunker.items()):
        yield ("reset chunker to defaults",
               replace(config, runtime=replace(runtime, **chunker)))
    for f in fields(FluidiCLConfig):
        default = getattr(defaults, f.name)
        if f.name not in _CHUNKER and getattr(runtime, f.name) != default:
            yield (f"reset {f.name} to {default}",
                   replace(config, runtime=replace(runtime,
                                                   **{f.name: default})))
    if config.app != _SIMPLEST_APP:
        yield (f"swap app {config.app} -> {_SIMPLEST_APP}",
               replace(config, app=_SIMPLEST_APP))
    half = config.size // 2
    if half >= _MIN_SIZE and half % 32 == 0:
        yield f"halve size {config.size} -> {half}", replace(config, size=half)


def shrink(config: FuzzConfig,
           run_fn: Callable[[FuzzConfig], CheckResult] = run_config,
           max_runs: int = 48,
           baseline: Optional[CheckResult] = None) -> ShrinkResult:
    """Greedily minimize a failing config; fixed point or budget exhaustion.

    ``run_fn`` exists for tests (stub runners); ``baseline`` avoids
    re-running the original config when its result is already known.
    """
    result = baseline if baseline is not None else run_fn(config)
    runs = 0 if baseline is not None else 1
    if not result.failed:
        return ShrinkResult(original=config, minimal=config, result=result,
                            runs=runs, steps=["original does not fail"])
    current, current_result = config, result
    steps: List[str] = []
    progress = True
    while progress and runs < max_runs:
        progress = False
        for description, candidate in _candidates(current):
            if runs >= max_runs:
                break
            candidate_result = run_fn(candidate)
            runs += 1
            if candidate_result.failed:
                current, current_result = candidate, candidate_result
                steps.append(description)
                progress = True
                break  # restart the scan from the simplified config
    return ShrinkResult(original=config, minimal=current,
                        result=current_result, runs=runs, steps=steps)


def _explicit_fields(record) -> Iterator[tuple]:
    """``(name, value)`` of each field of a dataclass record that has no
    default or differs from it."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.default is MISSING or value != f.default:
            yield f.name, value


def _format_value(value) -> str:
    """An eval-able literal for a FuzzConfig field value: a record renders
    as its constructor call, defaults omitted, and an enum member by name."""
    if isinstance(value, tuple):  # the fault schedule
        inner = ", ".join(_format_value(v) for v in value)
        return f"({inner},)" if value else "()"
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if is_dataclass(value):
        parts = ", ".join(f"{name}={_format_value(v)}"
                          for name, v in _explicit_fields(value))
        return f"{type(value).__name__}({parts})"
    return repr(value)


def format_config(config: FuzzConfig, indent: str = "        ") -> str:
    """Render a config as an eval-able constructor call, defaults omitted."""
    body = "\n".join(f"{indent}{name}={_format_value(value)},"
                     for name, value in _explicit_fields(config))
    return f"FuzzConfig(\n{body}\n{indent[:-4]})"


def reproducer_source(shrunk: ShrinkResult) -> str:
    """A ready-to-paste pytest case reproducing the minimal failure."""
    config = shrunk.minimal
    needs_faults = bool(config.faults)
    imports = ["from repro.check import FuzzConfig, run_config"]
    if config.runtime != FluidiCLConfig():
        imports.append("from repro.core import FluidiCLConfig")
    if needs_faults:
        imports.append("from repro.faults import FaultKind, FaultSpec")
    if config.serve is not None:
        imports.append("from repro.serve import ServeConfig")
    what = "; ".join(str(v) for v in shrunk.result.violations[:3]) \
        or shrunk.result.error or "wrong result"
    steps = "\n".join(f"#   - {s}" for s in shrunk.steps) or "#   (already minimal)"
    return f'''"""Auto-generated minimal reproducer (repro.check shrinker).

Original failing seed: {shrunk.original.seed}
Observed failure: {what}
Shrink steps applied ({shrunk.runs} runs):
{steps}
"""

{chr(10).join(imports)}


def test_fluidicl_check_seed_{shrunk.original.seed}():
    config = {format_config(config)}
    result = run_config(config)
    assert result.outcome != "error", result.error
    assert not result.violations, "\\n".join(str(v) for v in result.violations)
    assert result.correct is not False, (
        f"wrong result, max relative error {{result.max_relative_error:.3e}}")
'''
