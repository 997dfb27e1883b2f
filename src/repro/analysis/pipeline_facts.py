"""Per-stage facts for whole-pipeline analysis.

:func:`flatten_pipeline` turns a validated ``(decls, stages)`` pipeline
(:mod:`repro.workloads.pipeline`) into an execution-ordered list of
:class:`StageFacts` the FK4xx/FK5xx rule engine in
:mod:`repro.analysis.pipeline_analyzer` consumes.  It extends the
pipeline module's one stage walk (``flatten_stages``): each body stage is
tagged with its enclosing ``WhileStage`` loops, so rules reason about
loop-carried (wraparound) dataflow through the shared last-writer scan
(``scan_last_writers``) without walking the stage tree themselves.

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
from typing import Dict, List, Optional, Sequence

from repro.analysis.analyzer import _facts_for
from repro.analysis.facts import (
    AccessMode,
    AxisKind,
    BufferAccess,
    KernelFacts,
)

# ``repro.workloads.pipeline`` participates in an import cycle with
# ``repro.polybench`` (the 2mm/3mm apps subclass PipelineApp while the
# pipeline module uses the Polybench app contract).  The cycle only
# resolves when ``repro.polybench`` finishes loading first, so force
# that ordering before touching the pipeline DSL.
import repro.polybench  # noqa: F401
from repro.workloads.pipeline import (
    BufferDecl,
    FlatStage,
    Stage,
    flatten_stages,
)

__all__ = [
    "StageFacts",
    "PipelineFacts",
    "flatten_pipeline",
]


@dataclass(frozen=True)
class StageFacts(FlatStage):
    """One flattened stage plus what its kernel body does (kernels only)."""

    facts: Optional[KernelFacts] = None
    #: buffer name -> body accesses of that buffer (analyzable bodies only)
    body_reads: Dict[str, List[BufferAccess]] = field(default_factory=dict)
    body_writes: Dict[str, List[BufferAccess]] = field(default_factory=dict)

    @property
    def dynamic_ndrange(self) -> bool:
        """True when the NDRange is a function of the pipeline state
        (data-dependent launch geometry, e.g. a shrinking BFS frontier)."""
        return self.spec is not None and callable(self.stage.ndrange)

    @property
    def total_groups(self) -> Optional[int]:
        if self.spec is None or self.dynamic_ndrange:
            return None
        return self.stage.ndrange.total_groups

    @property
    def analyzable(self) -> bool:
        return self.facts is not None and self.facts.analyzable

    @property
    def in_loop(self) -> bool:
        return bool(self.loops)

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


def _stage_facts(stage: FlatStage) -> StageFacts:
    flat = (stage.index, stage.stage, stage.loops, stage.reads, stage.writes)
    if stage.spec is None:
        return StageFacts(*flat)
    binds = stage.stage.buffer_binds()
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
    return StageFacts(*flat, facts=facts, body_reads=body_reads,
                      body_writes=body_writes)


def flatten_pipeline(decls: Sequence[BufferDecl],
                     stages: Sequence[Stage]) -> PipelineFacts:
    """Flatten a validated pipeline into ordered :class:`StageFacts`."""
    return PipelineFacts(
        decls={d.name: d for d in decls},
        stages=[_stage_facts(stage) for stage in flatten_stages(stages)],
    )
