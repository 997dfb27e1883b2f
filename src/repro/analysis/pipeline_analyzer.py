"""Whole-pipeline static dataflow analysis: the FK4xx/FK5xx rules.

The per-kernel analyzer proves each kernel is *fluidic-safe* in
isolation; this pass closes the remaining gap for :class:`PipelineApp`
DAGs, where kernels compose through declared buffers, host stages and
``WhileStage`` loops.  The rules split into two families (catalog:
DESIGN.md, "Pipeline dataflow analysis"):

* **FK4xx — inter-stage dataflow.**  A stage that reads a buffer whose
  last writer's declared intent does not cover the write observes a
  corrupt partition mix (FK401, the pipeline-level FK101); two writes with
  no intervening reader have no dependency edge ordering them (FK402); a
  loop-carried buffer written under a data-dependent NDRange but read at
  full extent mixes iterations (FK403); a host stage that blindly
  overwrites a kernel-produced buffer clobbers a live version (FK404);
  ``group_weights`` that cannot match the launch geometry diverge the
  §5.1 chunking (FK405).
* **FK5xx — partition composition.**  The flattened-ID partition (§4,
  Fig. 7) survives a merge boundary only when the consumer reads the same
  tile geometry the producer wrote: a transposed tile axis (FK501) or a
  different subscript rank (FK502) recomposes another device's unmerged
  partition — the cross-*stage* analogue of FK201/FK202.

:func:`predicted_writers` additionally exports the static claim the
runtime :class:`~repro.analysis.pipeline_sanitizer.PipelineSanitizer`
validates on every cooperative run: per buffer, the set of producers any
observed ``buffer_read`` version may legally come from.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import Finding, LintReport, rule
from repro.analysis.facts import AxisKind
from repro.analysis.pipeline_facts import (
    PipelineFacts,
    StageFacts,
    flatten_pipeline,
)
from repro.workloads.pipeline import (
    HOST_INIT,
    BufferDecl,
    Stage,
    WhileStage,
    scan_last_writers,
)

__all__ = [
    "HOST_PRODUCER",
    "analyze_pipeline",
    "predicted_writers",
]

#: the producer token host writes collapse to at runtime: an init write and
#: a host-stage write both surface as ``buffer_write`` events
HOST_PRODUCER = "<host>"

#: a "last writer" during the dataflow scans: a stage, or the host init
Writer = Union[StageFacts, str]


def _producer_pairs(pf: PipelineFacts) -> Iterator[
        Tuple[Writer, str, StageFacts]]:
    """``(producer, buffer, consumer)`` triples over declared dataflow."""
    for stage, last in scan_last_writers(pf.decls.values(), pf.stages):
        for buffer in stage.reads:
            producer = last.get(buffer)
            if producer is not None:
                yield producer, buffer, stage


# ---------------------------------------------------------------------------
# FK4xx: inter-stage dataflow
# ---------------------------------------------------------------------------
def _fk401_undeclared_write_read_downstream(
        pf: PipelineFacts) -> List[Finding]:
    """A later stage reads a buffer whose actual last writer's declared
    intent does not cover the write (the pipeline-level FK101)."""
    findings: List[Finding] = []
    for stage in pf.stages:
        if stage.kind != "kernel" or not stage.analyzable:
            continue
        declared = set(stage.writes)
        for buffer in sorted(set(stage.body_writes) - declared):
            consumer: Optional[str] = None
            for reader in pf.readers_of(buffer):
                if reader.index == stage.index:
                    continue
                if reader.index > stage.index or reader.shares_loop(stage):
                    consumer = f"stage {reader.name!r}"
                    break
            decl = pf.decls[buffer]
            if consumer is None and decl.read is not None:
                consumer = f"the host read-back into {decl.read!r}"
            if consumer is None:
                continue  # nobody downstream observes it; FK101 still fires
            findings.append(rule("FK401").finding(
                f"{consumer} reads buffer {buffer!r}, but its last writer "
                f"{stage.name!r} writes it through an intent that does not "
                f"cover the write: the buffer never enters out_args, the "
                f"partitions are never merged, and the reader observes a "
                f"corrupt mix of device copies",
                kernel=stage.name, stage=stage.name, buffer=buffer,
                hint=f"declare the argument bound to {buffer!r} in stage "
                     f"{stage.name!r} with Intent.OUT or Intent.INOUT",
            ))
    return findings


def _fk402_unordered_waw(pf: PipelineFacts) -> List[Finding]:
    """Two declared writes with no intervening reader: no dependency edge
    orders them, so the first write is dead (or worse, partially mixed)."""
    findings: List[Finding] = []
    read_since: Dict[str, bool] = {}
    loop_readers: Dict[WhileStage, Set[str]] = {}
    for stage in pf.stages:
        for loop in stage.loops:
            loop_readers.setdefault(loop, set()).update(stage.reads)
    for stage, last in scan_last_writers(pf.decls.values(), pf.stages):
        reads = set(stage.reads)
        for buffer in reads:
            read_since[buffer] = True
        for buffer in stage.writes:
            previous = last.get(buffer)
            if (previous is None or buffer in reads
                    or read_since.get(buffer, False)):
                read_since[buffer] = False
                continue
            # a reader anywhere in a loop both writers share intervenes
            # on the wraparound path
            shared = (set(stage.loops) & set(previous.loops)
                      if isinstance(previous, StageFacts) else set())
            if any(buffer in loop_readers.get(loop, ())
                   for loop in shared):
                read_since[buffer] = False
                continue
            producer = ("the host init" if previous == HOST_INIT
                        else f"stage {previous.name!r}")
            findings.append(rule("FK402").finding(
                f"stage {stage.name!r} overwrites buffer {buffer!r} while "
                f"no stage read the value {producer} produced: nothing "
                f"orders the two writes, so the first is dead — or, under "
                f"partial-extent writes, the copies mix across devices",
                kernel=stage.name if stage.kind == "kernel" else None,
                stage=stage.name, buffer=buffer,
                hint=f"read {buffer!r} in stage {stage.name!r} "
                     f"(Intent.INOUT), or drop the earlier write",
            ))
            read_since[buffer] = False
    return findings


def _fk403_shrinking_loop_extent(pf: PipelineFacts) -> List[Finding]:
    """Loop-carried buffer written under a data-dependent NDRange but read
    at full extent: iterations mix wherever the range shrank."""
    findings: List[Finding] = []
    for writer in pf.stages:
        if (writer.kind != "kernel" or not writer.dynamic_ndrange
                or not writer.in_loop or not writer.analyzable):
            continue
        for buffer in writer.writes:
            mapping = writer.write_mapping(buffer)
            if not mapping:
                continue  # write not tile-pinned; FK201 territory
            for reader in pf.readers_of(buffer):
                if reader.index == writer.index:
                    continue
                if (reader.index < writer.index
                        and not reader.shares_loop(writer)):
                    continue
                extent = _full_extent_read(reader, buffer, mapping)
                if extent is None:
                    continue
                findings.append(rule("FK403").finding(
                    f"stage {writer.name!r} writes buffer {buffer!r} under "
                    f"a data-dependent NDRange inside loop "
                    f"{writer.loops[-1].name!r}, but {extent}: when the "
                    f"range shrinks, elements beyond it still hold the "
                    f"previous iteration's values at read time",
                    kernel=writer.name, stage=writer.name, buffer=buffer,
                    hint="bound the read by the same data-dependent count "
                         "(pass it as a scalar argument), or write the "
                         "full extent every iteration",
                ))
                break  # one finding per (writer, buffer)
    return findings


def _full_extent_read(reader: StageFacts, buffer: str,
                      mapping: Dict[int, int]) -> Optional[str]:
    """Describe ``reader``'s full-extent read of ``buffer``, if any.

    ``OTHER`` axes are presumed bounded by a scalar the host derives from
    the same data-dependent size (the BFS ``cand[:nfront]`` idiom) and do
    not fire; only provably-unbounded reads do.
    """
    if reader.kind == "host":
        return (f"host stage {reader.name!r} reads it back at the full "
                f"declared shape")
    if not reader.analyzable:
        return None  # FK410 reports the blind spot
    for access in reader.body_reads.get(buffer, ()):
        if not access.subscripted:
            return (f"stage {reader.name!r} reads it as a whole variable")
        for pos in mapping:
            if (pos < len(access.axes)
                    and access.axes[pos].kind is AxisKind.FULL):
                return (f"stage {reader.name!r} reads it with an unbounded "
                        f"':' on subscript axis {pos}, the axis the writes "
                        f"cover only up to the current range")
    return None


def _fk404_host_clobber(pf: PipelineFacts) -> List[Finding]:
    """Host stage overwrites a kernel-produced buffer it never read."""
    findings: List[Finding] = []
    for stage, last in scan_last_writers(pf.decls.values(), pf.stages):
        if stage.kind != "host":
            continue
        for buffer in stage.writes:
            previous = last.get(buffer)
            if (not isinstance(previous, StageFacts)
                    or previous.kind != "kernel"
                    or buffer in stage.reads):
                continue
            findings.append(rule("FK404").finding(
                f"host stage {stage.name!r} overwrites buffer {buffer!r} "
                f"last written by kernel stage {previous.name!r} without "
                f"reading it: the kernel's live version is clobbered "
                f"blind, and under location tracking (§6.2) a stale device "
                f"copy may even skip its refresh",
                stage=stage.name, buffer=buffer,
                hint=f"declare {buffer!r} in the host stage's reads= and "
                     f"fold the kernel result in, or drop the kernel write",
            ))
    return findings


def _fk405_group_weights(pf: PipelineFacts) -> List[Finding]:
    """``group_weights`` length that cannot match the launch geometry."""
    findings: List[Finding] = []
    seen: Set[str] = set()
    for stage in pf.stages:
        if stage.kind != "kernel" or stage.spec is None:
            continue
        weights = stage.spec.group_weights
        if weights is None or stage.name in seen:
            continue
        seen.add(stage.name)
        if stage.dynamic_ndrange:
            findings.append(rule("FK405").finding(
                f"stage {stage.name!r} declares {len(weights)} "
                f"group_weights but launches under a data-dependent "
                f"NDRange: the group count varies per iteration, so the "
                f"§5.1 weighted chunking diverges the moment the range "
                f"shrinks or grows",
                kernel=stage.name, stage=stage.name,
                hint="drop group_weights on data-dependent launches, or "
                     "recompute them per iteration in host code",
            ))
        elif stage.total_groups is not None \
                and len(weights) != stage.total_groups:
            findings.append(rule("FK405").finding(
                f"stage {stage.name!r} declares {len(weights)} "
                f"group_weights but its NDRange launches "
                f"{stage.total_groups} work-groups: the weighted chunking "
                f"(§5.1) would index out of range or silently truncate",
                kernel=stage.name, stage=stage.name,
                hint=f"declare exactly {stage.total_groups} weights",
            ))
    return findings


def _fk410_unanalyzable(pf: PipelineFacts) -> List[Finding]:
    findings: List[Finding] = []
    seen: Set[str] = set()
    for stage in pf.stages:
        if stage.kind != "kernel" or stage.analyzable:
            continue
        if stage.name in seen:
            continue
        seen.add(stage.name)
        reason = stage.facts.reason if stage.facts is not None else "unknown"
        findings.append(rule("FK410").finding(
            f"body of stage {stage.name!r} is not statically analyzable "
            f"({reason}): the pipeline dataflow rules degrade to declared "
            f"intents for this stage",
            kernel=stage.name, stage=stage.name,
            hint="define the body as a module-level function",
        ))
    return findings


# ---------------------------------------------------------------------------
# FK5xx: partition composition across the merge boundary
# ---------------------------------------------------------------------------
def _fk501_transposed_tile(pf: PipelineFacts) -> List[Finding]:
    findings: List[Finding] = []
    reported: Set[Tuple[str, str, str]] = set()
    for producer, buffer, consumer in _producer_pairs(pf):
        if (not isinstance(producer, StageFacts)
                or producer.kind != "kernel" or producer.index == consumer.index
                or consumer.kind != "kernel"
                or not producer.analyzable or not consumer.analyzable):
            continue
        mapping = producer.write_mapping(buffer)
        if not mapping:
            continue
        key = (producer.name, buffer, consumer.name)
        if key in reported:
            continue
        for access in consumer.body_reads.get(buffer, ()):
            if not access.subscripted:
                continue
            bad = [
                (pos, axis.dim, mapping[pos])
                for pos, axis in enumerate(access.axes)
                if pos in mapping and axis.kind is AxisKind.TILE
                and axis.dim != mapping[pos]
            ]
            if bad:
                pos, got, want = bad[0]
                reported.add(key)
                findings.append(rule("FK501").finding(
                    f"stage {consumer.name!r} reads buffer {buffer!r} with "
                    f"its tile of NDRange dim {got} on subscript axis "
                    f"{pos}, but producer {producer.name!r} partitions "
                    f"that axis by NDRange dim {want}: across the merge "
                    f"boundary each group recomposes slices another device "
                    f"may own, so the flattened-ID partition (Fig. 7) no "
                    f"longer covers the read",
                    kernel=consumer.name, stage=consumer.name, buffer=buffer,
                    hint="read the buffer through the same tile axis the "
                         "producer writes (match the NDRange dims), or "
                         "re-tile through an intermediate kernel",
                ))
                break
    return findings


def _fk502_rank_mismatch(pf: PipelineFacts) -> List[Finding]:
    findings: List[Finding] = []
    reported: Set[Tuple[str, str, str]] = set()
    for producer, buffer, consumer in _producer_pairs(pf):
        if (not isinstance(producer, StageFacts)
                or producer.kind != "kernel" or producer.index == consumer.index
                or consumer.kind != "kernel"
                or not producer.analyzable or not consumer.analyzable):
            continue
        rank = producer.write_rank(buffer)
        if rank is None:
            continue
        key = (producer.name, buffer, consumer.name)
        if key in reported:
            continue
        for access in consumer.body_reads.get(buffer, ()):
            if (access.subscripted and access.tile_dims
                    and len(access.axes) != rank):
                reported.add(key)
                findings.append(rule("FK502").finding(
                    f"stage {consumer.name!r} reads buffer {buffer!r} "
                    f"through a rank-{len(access.axes)} subscript while "
                    f"producer {producer.name!r} partitions it at rank "
                    f"{rank}: the consumer recomposes the flattened "
                    f"partition along a different shape, which only "
                    f"coincidentally matches the producer's tile "
                    f"boundaries",
                    kernel=consumer.name, stage=consumer.name, buffer=buffer,
                    hint="access the buffer at the rank the producer "
                         "writes it, or reshape through a host stage",
                ))
                break
    return findings


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
_RULE_PASSES = (
    _fk401_undeclared_write_read_downstream,
    _fk402_unordered_waw,
    _fk403_shrinking_loop_extent,
    _fk404_host_clobber,
    _fk405_group_weights,
    _fk410_unanalyzable,
    _fk501_transposed_tile,
    _fk502_rank_mismatch,
)


def analyze_pipeline(decls: Sequence[BufferDecl], stages: Sequence[Stage],
                     *, name: str = "pipeline") -> LintReport:
    """Run every FK4xx/FK5xx rule over one validated pipeline."""
    pf = flatten_pipeline(decls, stages)
    report = LintReport(kernel=name, version="pipeline")
    for rule_pass in _RULE_PASSES:
        for finding in rule_pass(pf):
            report.add(finding)
    return report


def predicted_writers(decls: Sequence[BufferDecl],
                      stages: Sequence[Stage]) -> Dict[str, Set[str]]:
    """The static claim the runtime sanitizer validates: per buffer, the
    set of producers any observed ``buffer_read`` version may come from.

    Kernel stages contribute their kernel name (commits carry the
    committing kernel's id); host-init and host-stage writes both surface
    as ``buffer_write`` events, so they collapse to :data:`HOST_PRODUCER`.
    """
    pf = flatten_pipeline(decls, stages)
    writers: Dict[str, Set[str]] = {name: set() for name in pf.decls}
    for name, decl in pf.decls.items():
        if decl.init is not None:
            writers[name].add(HOST_PRODUCER)
    for stage in pf.stages:
        for buffer in stage.writes:
            writers[buffer].add(
                stage.name if stage.kind == "kernel" else HOST_PRODUCER)
    return writers
