"""Multi-kernel pipelines with declared inter-kernel buffer dependencies.

A :class:`PipelineApp` describes a host program as data instead of code:
buffer declarations (with which input initializes them and which output
reads them back) plus an ordered list of stages.  Three stage kinds cover
the shapes that appear in multi-kernel OpenCL programs:

* :class:`KernelStage` — one ``clEnqueueNDRangeKernel``.  Buffer arguments
  are bound *by buffer name*, which is what makes the inter-kernel
  dependencies explicit and checkable; scalars may be literals or
  functions of the pipeline state (for level counters and data-dependent
  sizes).
* :class:`HostStage` — host code between kernels (read a buffer, compute,
  write a buffer), e.g. the block-sums scan between a prefix-scan's
  upsweep and downsweep.  Host stages go through a :class:`PipelineHost`
  façade that enforces the stage's declared ``reads``/``writes``.
* :class:`WhileStage` — a data-dependent loop over sub-stages, e.g. BFS
  level iteration.  Loop-carried dependencies are legal: a buffer written
  anywhere in the loop body counts as defined for every stage of the body
  (its first-iteration value must then come from an init or an earlier
  stage, which validation still enforces for the loop as a whole).

``validate_pipeline`` rejects use-before-def reads, unbound or unknown
arguments and never-written outputs *before* any simulated work runs, and
``dependency_edges`` exposes the resulting producer → consumer graph for
tests and docs.  Both read the stage tree through one walk
(``flatten_stages``) and one last-writer scan (``scan_last_writers``),
which the FK4xx/FK5xx analysis in :mod:`repro.analysis` shares.

The generic ``host_program`` preserves the classic host-program shape —
create every buffer, write every init buffer, run the stages, read every
output — in declaration order, so a hand-written app refactored onto
``PipelineApp`` replays the identical runtime call sequence (and therefore
the identical simulated schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.diagnostics import LintError, LintReport
from repro.kernels.dsl import KernelSpec
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = [
    "PipelineError",
    "BufferDecl",
    "KernelStage",
    "HostStage",
    "WhileStage",
    "PipelineHost",
    "PipelineApp",
    "HOST_INIT",
    "FlatStage",
    "flatten_stages",
    "scan_last_writers",
    "validate_pipeline",
    "dependency_edges",
]


class PipelineError(ValueError):
    """An inconsistent pipeline declaration (use-before-def, bad bind, ...)."""


#: a value computed from the mutable pipeline state dict
StateFn = Callable[[Dict[str, Any]], Any]


@dataclass(frozen=True)
class BufferDecl:
    """One device buffer of the pipeline.

    ``init`` names the host-input key written into the buffer before the
    first stage; ``read`` names the output key the buffer is read back
    into after the last stage.  Either may be ``None`` for intermediates.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: Any = DTYPE
    init: Optional[str] = None
    read: Optional[str] = None


@dataclass(frozen=True)
class KernelStage:
    """One kernel launch: buffer args bound by buffer *name*."""

    spec: KernelSpec
    ndrange: Union[NDRange, StateFn]
    binds: Mapping[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.spec.name

    def buffer_binds(self) -> Dict[str, str]:
        """Map kernel argument name -> bound buffer name (validated)."""
        extra = set(self.binds) - {a.name for a in self.spec.args}
        if extra:
            raise PipelineError(
                f"stage {self.name!r} binds unknown arguments "
                f"{sorted(extra)}"
            )
        out: Dict[str, str] = {}
        for arg in self.spec.args:
            if arg.name not in self.binds:
                raise PipelineError(
                    f"stage {self.name!r}: argument {arg.name!r} is unbound"
                )
            value = self.binds[arg.name]
            if arg.is_buffer:
                if not isinstance(value, str):
                    raise PipelineError(
                        f"stage {self.name!r}: buffer argument {arg.name!r} "
                        f"must be bound to a buffer name, got "
                        f"{type(value).__name__}"
                    )
                out[arg.name] = value
            elif isinstance(value, str):
                raise PipelineError(
                    f"stage {self.name!r}: scalar argument {arg.name!r} "
                    f"bound to a buffer name {value!r}"
                )
        return out

    def reads(self) -> Tuple[str, ...]:
        bmap = self.buffer_binds()
        return tuple(bmap[a.name] for a in self.spec.args
                     if a.is_buffer and a.intent.is_read)

    def writes(self) -> Tuple[str, ...]:
        bmap = self.buffer_binds()
        return tuple(bmap[a.name] for a in self.spec.args
                     if a.is_buffer and a.intent.is_written)


@dataclass(frozen=True)
class HostStage:
    """Host code between kernels, restricted to declared buffers."""

    name: str
    fn: Callable[["PipelineHost", Dict[str, Any]], None]
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class WhileStage:
    """Run ``body`` stages while ``cond(state)`` holds (BFS levels etc.).

    Loops compare by identity: each one is its own scope for the
    loop-carried dataflow of :func:`scan_last_writers`.
    """

    name: str
    cond: StateFn
    body: Tuple[Any, ...]
    #: hard iteration cap: a data-dependent loop that fails to converge
    #: should fail loudly, not hang the simulation
    max_iterations: int = 10_000


Stage = Union[KernelStage, HostStage, WhileStage]


class PipelineHost:
    """What a :class:`HostStage` function sees: declared buffers only.

    ``read`` blocks (``clFinish``) before returning so the host code
    observes completed kernel results on *every* runtime, including the
    single-device baseline whose reads complete lazily at finish time.
    """

    def __init__(self, runtime: AbstractRuntime, buffers: Mapping[str, Any],
                 decls: Mapping[str, BufferDecl], stage: HostStage):
        self._runtime = runtime
        self._buffers = buffers
        self._decls = decls
        self._stage = stage

    def read(self, name: str) -> np.ndarray:
        if name not in self._stage.reads:
            raise PipelineError(
                f"host stage {self._stage.name!r} reads {name!r} without "
                f"declaring it in reads="
            )
        decl = self._decls[name]
        out = np.empty(decl.shape, dtype=decl.dtype)
        self._runtime.enqueue_read_buffer(self._buffers[name], out)
        self._runtime.finish()
        return out

    def write(self, name: str, array: np.ndarray) -> None:
        if name not in self._stage.writes:
            raise PipelineError(
                f"host stage {self._stage.name!r} writes {name!r} without "
                f"declaring it in writes="
            )
        self._runtime.enqueue_write_buffer(self._buffers[name], array)


# ---------------------------------------------------------------------------
# Static validation: one walk of the stage tree, one last-writer scan
# ---------------------------------------------------------------------------

#: the producer of a host-initialized buffer
HOST_INIT = "<host-init>"


def _where(loops: Sequence[WhileStage]) -> str:
    return "pipeline" + "".join(f"/while:{loop.name}" for loop in loops)


@dataclass(frozen=True)
class FlatStage:
    """One kernel or host stage at its place in execution order."""

    index: int
    stage: Union[KernelStage, HostStage]
    #: enclosing loops, outermost first; empty at top level
    loops: Tuple[WhileStage, ...]
    #: declared reads/writes, in buffer names
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]

    @property
    def name(self) -> str:
        return self.stage.name

    @property
    def kind(self) -> str:
        return "kernel" if isinstance(self.stage, KernelStage) else "host"

    @property
    def spec(self) -> Optional[KernelSpec]:
        return self.stage.spec if isinstance(self.stage, KernelStage) else None


def flatten_stages(stages: Sequence[Stage]) -> List[FlatStage]:
    """Every kernel and host stage of the tree, in execution order.

    The one walk of the stage tree: validation, :func:`dependency_edges`,
    ``PipelineApp.kernel_specs`` and the FK4xx/FK5xx analysis all read
    its result.  A loop body appears once, each stage tagged with the
    loops around it.
    """
    flat: List[FlatStage] = []

    def walk(body: Sequence[Stage], loops: Tuple[WhileStage, ...]) -> None:
        for stage in body:
            if isinstance(stage, WhileStage):
                walk(stage.body, loops + (stage,))
            elif isinstance(stage, KernelStage):
                flat.append(FlatStage(len(flat), stage, loops,
                                      stage.reads(), stage.writes()))
            elif isinstance(stage, HostStage):
                flat.append(FlatStage(len(flat), stage, loops,
                                      tuple(stage.reads), tuple(stage.writes)))
            else:
                raise PipelineError(
                    f"{_where(loops)}: unknown stage type "
                    f"{type(stage).__name__}"
                )

    walk(stages, ())
    return flat


def scan_last_writers(decls: Sequence[BufferDecl], flat: Sequence[FlatStage],
                      ) -> Iterator[Tuple[FlatStage,
                                          Dict[str, Union[FlatStage, str]]]]:
    """Yield each stage with every buffer's last writer before it runs.

    Host-initialized buffers start out written by :data:`HOST_INIT`.  On
    first entry into a loop, every writer in its body is registered (in
    body order, later writers winning), so a loop-carried read points at
    the in-loop producer a wraparound iteration observes.  The yielded
    map is updated in place as the scan advances.
    """
    last: Dict[str, Union[FlatStage, str]] = {
        d.name: HOST_INIT for d in decls if d.init is not None
    }
    entered: Set[WhileStage] = set()
    for stage in flat:
        for loop in stage.loops:
            if loop not in entered:
                entered.add(loop)
                for member in flat:
                    if loop in member.loops:
                        last.update(dict.fromkeys(member.writes, member))
        yield stage, last
        last.update(dict.fromkeys(stage.writes, stage))


def validate_pipeline(decls: Sequence[BufferDecl],
                      stages: Sequence[Stage]) -> None:
    """Reject inconsistent pipelines before any simulated work runs."""
    names = [d.name for d in decls]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise PipelineError(f"duplicate buffer declarations: {duplicates}")
    declared = set(names)
    for d in decls:
        if d.init is not None and d.read is not None and not d.shape:
            raise PipelineError(f"buffer {d.name!r} has an empty shape")
    flat = flatten_stages(stages)
    for stage, last in scan_last_writers(decls, flat):
        who = (f"{_where(stage.loops)}: "
               f"{'stage' if stage.kind == 'kernel' else 'host stage'} "
               f"{stage.name!r}")
        for buf in stage.reads:
            if buf not in declared:
                raise PipelineError(f"{who} reads undeclared buffer {buf!r}")
            if buf not in last:
                raise PipelineError(
                    f"{who} reads buffer {buf!r} before anything writes it"
                )
        for buf in stage.writes:
            if buf not in declared:
                raise PipelineError(f"{who} writes undeclared buffer {buf!r}")
    written = {d.name for d in decls if d.init is not None}
    written.update(buf for stage in flat for buf in stage.writes)
    for d in decls:
        if d.read is not None and d.name not in written:
            raise PipelineError(
                f"output buffer {d.name!r} (read as {d.read!r}) is never "
                f"written by any stage"
            )


def dependency_edges(decls: Sequence[BufferDecl], stages: Sequence[Stage],
                     ) -> List[Tuple[str, str, str]]:
    """The producer → consumer graph as ``(producer, buffer, consumer)``.

    Host-initialized buffers are produced by ``"<host-init>"``.  Inside a
    ``WhileStage`` the body's writers are registered first, so loop-carried
    edges (e.g. a frontier buffer rewritten at the end of each BFS level)
    point at the in-loop producer.
    """
    edges: List[Tuple[str, str, str]] = []
    for stage, last in scan_last_writers(decls, flatten_stages(stages)):
        for buf in stage.reads:
            writer = last.get(buf, "<undefined>")
            producer = writer if isinstance(writer, str) else writer.name
            edges.append((producer, buf, stage.name))
    return edges


# ---------------------------------------------------------------------------
# The app base class
# ---------------------------------------------------------------------------

class PipelineApp(PolybenchApp):
    """A :class:`PolybenchApp` whose host program is a declared pipeline."""

    # -- to implement per app ------------------------------------------------
    def buffer_decls(self) -> Sequence[BufferDecl]:
        raise NotImplementedError

    def stages(self) -> Sequence[Stage]:
        raise NotImplementedError

    def initial_state(self, inputs: Dict[str, np.ndarray]) -> Dict[str, Any]:
        """Mutable state threaded through stages (level counters etc.)."""
        return {}

    # -- provided ----------------------------------------------------------------
    def pipeline(self) -> Tuple[Tuple[BufferDecl, ...], Tuple[Stage, ...]]:
        """The validated (decls, stages) pair; validation runs once."""
        cached = getattr(self, "_pipeline_cache", None)
        if cached is None:
            decls = tuple(self.buffer_decls())
            stages = tuple(self.stages())
            validate_pipeline(decls, stages)
            cached = (decls, stages)
            self._pipeline_cache = cached
        return cached

    def dependency_edges(self) -> List[Tuple[str, str, str]]:
        decls, stages = self.pipeline()
        return dependency_edges(decls, stages)

    def kernel_specs(self) -> List[KernelSpec]:
        _, stages = self.pipeline()
        specs: Dict[Tuple[str, str], KernelSpec] = {}
        for stage in flatten_stages(stages):
            if stage.spec is not None:
                specs.setdefault((stage.spec.name, stage.spec.version),
                                 stage.spec)
        return list(specs.values())

    def kernel_metas(self) -> List[KernelMeta]:
        _, stages = self.pipeline()
        metas: List[KernelMeta] = []
        for stage in stages:
            if isinstance(stage, WhileStage):
                raise PipelineError(
                    f"app {self.name!r} has a data-dependent loop: override "
                    f"kernel_metas() with the concrete launch schedule"
                )
            if isinstance(stage, KernelStage):
                if callable(stage.ndrange):
                    raise PipelineError(
                        f"app {self.name!r} stage {stage.name!r} has a "
                        f"data-dependent NDRange: override kernel_metas()"
                    )
                metas.append(KernelMeta(stage.spec.name, stage.ndrange))
        return metas

    def analyze(self) -> LintReport:
        """The pipeline's static FK4xx/FK5xx report (cached per instance)."""
        cached = getattr(self, "_pipeline_report", None)
        if cached is None:
            from repro.analysis.pipeline_analyzer import analyze_pipeline

            decls, stages = self.pipeline()
            cached = analyze_pipeline(decls, stages, name=self.name)
            self._pipeline_report = cached
        return cached

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        decls, stages = self.pipeline()
        sanitizer = self._pipeline_guard(runtime, decls, stages)
        try:
            decls_by_name = {d.name: d for d in decls}
            buffers = {
                d.name: runtime.create_buffer(d.name, d.shape, d.dtype)
                for d in decls
            }
            for d in decls:
                if d.init is not None:
                    runtime.enqueue_write_buffer(buffers[d.name],
                                                 inputs[d.init])
            state = self.initial_state(inputs)
            self._run_stages(runtime, buffers, decls_by_name, state, stages)
            outputs: Dict[str, np.ndarray] = {}
            for d in decls:
                if d.read is not None:
                    out = np.empty(d.shape, dtype=d.dtype)
                    runtime.enqueue_read_buffer(buffers[d.name], out)
                    outputs[d.read] = out
            return outputs
        finally:
            if sanitizer is not None:
                sanitizer.detach(runtime.machine.tracer)
                if sanitizer.violations:
                    runtime.emit_lint(LintReport(
                        self.name, "pipeline",
                        [v.as_finding() for v in sanitizer.violations]))

    # -- pipeline lint gate + runtime sanitizer ------------------------------
    def _pipeline_guard(self, runtime: AbstractRuntime, decls, stages):
        """Apply ``FluidiCLConfig.lint`` to the whole pipeline.

        ``strict`` refuses to launch a pipeline with FK4xx/FK5xx errors
        before any buffer exists; ``warn`` hands the report to the
        runtime's lint emitter and proceeds.  When the machine records
        events, the returned :class:`~repro.analysis.pipeline_sanitizer.
        PipelineSanitizer` is attached for the duration of the run so the
        static dataflow claims are validated dynamically.  Runtimes
        without a lint posture (the single-device baseline) are passed
        through untouched.
        """
        lint = getattr(getattr(runtime, "config", None), "lint", "off")
        if lint == "off":
            return None
        report = self.analyze()
        if lint == "strict" and not report.fluidic_safe:
            raise LintError([report])
        runtime.emit_lint(report)
        recorder = runtime.machine.tracer
        if recorder is None:
            return None
        from repro.analysis.pipeline_analyzer import predicted_writers
        from repro.analysis.pipeline_sanitizer import PipelineSanitizer

        sanitizer = PipelineSanitizer(predicted_writers(decls, stages),
                                      strict=(lint == "strict"))
        return sanitizer.attach(recorder)

    def _run_stages(self, runtime: AbstractRuntime,
                    buffers: Mapping[str, Any],
                    decls: Mapping[str, BufferDecl],
                    state: Dict[str, Any],
                    stages: Sequence[Stage]) -> None:
        for stage in stages:
            if isinstance(stage, KernelStage):
                nd = stage.ndrange(state) if callable(stage.ndrange) \
                    else stage.ndrange
                binds: Dict[str, Any] = {}
                for arg in stage.spec.args:
                    value = stage.binds[arg.name]
                    if arg.is_buffer:
                        binds[arg.name] = buffers[value]
                    else:
                        binds[arg.name] = value(state) if callable(value) \
                            else value
                runtime.enqueue_nd_range_kernel(stage.spec, nd, binds)
            elif isinstance(stage, HostStage):
                stage.fn(PipelineHost(runtime, buffers, decls, stage), state)
            elif isinstance(stage, WhileStage):
                iterations = 0
                while stage.cond(state):
                    iterations += 1
                    if iterations > stage.max_iterations:
                        raise PipelineError(
                            f"while stage {stage.name!r} exceeded "
                            f"{stage.max_iterations} iterations"
                        )
                    self._run_stages(runtime, buffers, decls, state,
                                     stage.body)
