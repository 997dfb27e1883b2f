"""Per-stage facts for whole-pipeline analysis.

:func:`flatten_pipeline` turns a validated ``(decls, stages)`` pipeline
(:mod:`repro.workloads.pipeline`) into an execution-ordered list of
:class:`StageFacts` the FK4xx/FK5xx rule engine in
:mod:`repro.analysis.pipeline_analyzer` consumes.  ``WhileStage`` loops are
flattened with their body stages tagged by the enclosing loop names, so
rules can reason about loop-carried (wraparound) dataflow without walking
the stage tree themselves.

The crucial translation happens here: buffer accesses extracted from each
stage kernel's body (:mod:`repro.analysis.facts`) are keyed by *argument*
name, while the pipeline's dataflow is declared in *buffer* names.  Each
kernel stage's ``buffer_binds()`` maps one namespace onto the other, so
every downstream rule sees a single namespace — the declared buffers —
and a cross-stage question ("does the consumer read the tile axis the
producer wrote?") becomes a lookup, not a join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.analyzer import _facts_for
from repro.analysis.facts import (
    AccessMode,
    AxisKind,
    BufferAccess,
    KernelFacts,
)
from repro.kernels.dsl import KernelSpec

# ``repro.workloads.pipeline`` participates in an import cycle with
# ``repro.polybench`` (the 2mm/3mm apps subclass PipelineApp while the
# pipeline module uses the Polybench app contract).  The cycle only
# resolves when ``repro.polybench`` finishes loading first, so force
# that ordering before touching the pipeline DSL.
import repro.polybench  # noqa: F401
from repro.workloads.pipeline import (
    BufferDecl,
    HostStage,
    KernelStage,
    Stage,
    WhileStage,
)

__all__ = [
    "HOST_INIT",
    "StageFacts",
    "PipelineFacts",
    "flatten_pipeline",
]

#: sentinel producer for host-initialized buffers (mirrors
#: ``dependency_edges``); host *stage* writers keep their stage name
HOST_INIT = "<host-init>"


@dataclass
class StageFacts:
    """One flattened stage of a pipeline, in execution order."""

    index: int
    kind: str  # "kernel" / "host"
    name: str
    #: enclosing ``WhileStage`` names, outermost first; empty at top level
    loops: Tuple[str, ...]
    #: declared reads/writes, already translated to buffer names
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    # -- kernel stages only ------------------------------------------------
    spec: Optional[KernelSpec] = None
    #: True when the NDRange is a function of the pipeline state
    #: (data-dependent launch geometry, e.g. a shrinking BFS frontier)
    dynamic_ndrange: bool = False
    total_groups: Optional[int] = None
    facts: Optional[KernelFacts] = None
    #: buffer name -> body accesses of that buffer (analyzable bodies only)
    body_reads: Dict[str, List[BufferAccess]] = field(default_factory=dict)
    body_writes: Dict[str, List[BufferAccess]] = field(default_factory=dict)

    @property
    def in_loop(self) -> bool:
        return bool(self.loops)

    @property
    def analyzable(self) -> bool:
        return self.facts is not None and self.facts.analyzable

    def shares_loop(self, other: "StageFacts") -> bool:
        return bool(set(self.loops) & set(other.loops))

    def write_mapping(self, buffer: str) -> Dict[int, int]:
        """Subscript position -> NDRange dim the body's writes pin it to.

        The cross-stage analogue of the FK2xx write→tile mapping: position
        ``p`` maps to dim ``d`` when some write subscripts axis ``p`` with
        the group's own tile of NDRange dimension ``d``.
        """
        mapping: Dict[int, int] = {}
        for access in self.body_writes.get(buffer, ()):
            for pos, axis in enumerate(access.axes):
                if axis.kind is AxisKind.TILE and pos not in mapping:
                    mapping[pos] = axis.dim
        return mapping

    def write_rank(self, buffer: str) -> Optional[int]:
        """Subscript rank of the tile-pinned writes, when it is unique."""
        ranks = {
            len(access.axes)
            for access in self.body_writes.get(buffer, ())
            if access.subscripted and access.tile_dims
        }
        return ranks.pop() if len(ranks) == 1 else None


@dataclass
class PipelineFacts:
    """The flattened pipeline: declared buffers + ordered stage facts."""

    decls: Dict[str, BufferDecl]
    stages: List[StageFacts]

    def readers_of(self, buffer: str) -> List[StageFacts]:
        return [s for s in self.stages if buffer in s.reads]

    def writers_of(self, buffer: str) -> List[StageFacts]:
        return [s for s in self.stages if buffer in s.writes]

    def loop_members(self, loop: str) -> List[StageFacts]:
        return [s for s in self.stages if loop in s.loops]


def _kernel_stage_facts(index: int, stage: KernelStage,
                        loops: Tuple[str, ...]) -> StageFacts:
    binds = stage.buffer_binds()
    facts = _facts_for(stage.spec.body)
    body_reads: Dict[str, List[BufferAccess]] = {}
    body_writes: Dict[str, List[BufferAccess]] = {}
    if facts.analyzable:
        for access in facts.accesses:
            buffer = binds.get(access.buffer)
            if buffer is None:
                continue  # scalar or undeclared arg; FK103/FK104 cover those
            target = (body_reads if access.mode is AccessMode.READ
                      else body_writes)
            target.setdefault(buffer, []).append(access)
    dynamic = callable(stage.ndrange)
    return StageFacts(
        index=index,
        kind="kernel",
        name=stage.name,
        loops=loops,
        reads=stage.reads(),
        writes=stage.writes(),
        spec=stage.spec,
        dynamic_ndrange=dynamic,
        total_groups=None if dynamic else stage.ndrange.total_groups,
        facts=facts,
        body_reads=body_reads,
        body_writes=body_writes,
    )


def flatten_pipeline(decls: Sequence[BufferDecl],
                     stages: Sequence[Stage]) -> PipelineFacts:
    """Flatten a validated pipeline into ordered :class:`StageFacts`."""
    flat: List[StageFacts] = []

    def walk(body: Sequence[Stage], loops: Tuple[str, ...]) -> None:
        for stage in body:
            if isinstance(stage, WhileStage):
                walk(stage.body, loops + (stage.name,))
            elif isinstance(stage, KernelStage):
                flat.append(_kernel_stage_facts(len(flat), stage, loops))
            elif isinstance(stage, HostStage):
                flat.append(StageFacts(
                    index=len(flat), kind="host", name=stage.name,
                    loops=loops, reads=tuple(stage.reads),
                    writes=tuple(stage.writes),
                ))

    walk(stages, ())
    return PipelineFacts(decls={d.name: d for d in decls}, stages=flat)
