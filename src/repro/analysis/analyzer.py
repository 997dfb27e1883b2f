"""The static kernel analyzer: rules over extracted kernel-body facts.

FluidiCL identifies ``out``/``inout`` buffers "using simple compiler
analysis at the whole variable level" (paper §4.1) and assumes every kernel
is safely splittable at work-group granularity.  In this reproduction the
``Intent`` on each ``ArgSpec`` is *declared*, so :func:`analyze_kernel`
closes the loop:

1. **Intent inference** (FK1xx): infer read/written/inout per buffer from
   the body AST and cross-check against the declaration.  An
   under-declared write (FK101) silently corrupts cooperative runs — the
   buffer never enters ``out_args``, so the diff+merge step drops the CPU
   partition's results.  An over-declared write (FK110) costs a redundant
   original-copy, transfer and merge per kernel.
2. **Work-group race detection** (FK2xx): every write must be pinned to
   the group's own tile in *every* NDRange dimension the body partitions
   on, and reads of written buffers must stay inside the same tile
   mapping the writes use.  A kernel that fails this is not *fluidic-safe*:
   partitioning its flattened group range across the devices of a set
   (Fig. 7; two in the paper, N under the device-set runtime) races on
   the out-buffers — each extra front is one more concurrent writer, so
   the FK2xx verdict gates every cooperative launch regardless of the
   set's size.
3. **Abort-check placement** (FK3xx): kernels with long inner loops need
   the §6.4 in-loop abort checks (else a running work-group cannot yield
   when the range completes elsewhere) and the §6.5 re-unrolling (else
   every work-group pays ``no_unroll_penalty``).

The verdict (``LintReport.fluidic_safe``) feeds the runtime lint gate
(``FluidiCLConfig.lint``).  :func:`analyze_app` is the one analysis entry
per app — every kernel it launches plus, for a ``PipelineApp``, the whole
pipeline — which the ``python -m repro.harness lint`` CLI and the
:mod:`repro.check` fuzzer's pre-flight both call.
"""

from __future__ import annotations

import difflib
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import (
    Finding,
    LintReport,
    SourceLocation,
    rule,
)
from repro.analysis.facts import (
    AxisKind,
    BufferAccess,
    KernelFacts,
    extract_facts,
)
from repro.kernels.dsl import KernelSpec

__all__ = [
    "LONG_LOOP_ITERS",
    "analyze_kernel",
    "analyze_app",
]

#: loop trip counts at or above this are "long": a work-group that cannot
#: abort inside the loop holds its device for the whole trip (§6.4)
LONG_LOOP_ITERS = 16

#: memoized facts per body function (kernel factories rebuild specs per
#: call, but reuse module-level body functions)
_FACTS_CACHE: Dict[object, KernelFacts] = {}


def _facts_for(body) -> KernelFacts:
    try:
        cached = _FACTS_CACHE.get(body)
    except TypeError:  # unhashable callable
        return extract_facts(body)
    if cached is None:
        cached = extract_facts(body)
        _FACTS_CACHE[body] = cached
    return cached


def _loc(facts: KernelFacts, line: int) -> Optional[SourceLocation]:
    if not facts.source_file:
        return None
    return SourceLocation(facts.source_file, line)


def _describe_axes(access: BufferAccess) -> str:
    if not access.subscripted:
        return "whole variable"
    parts = []
    for axis in access.axes:
        if axis.kind is AxisKind.TILE:
            parts.append(f"tile(dim {axis.dim})")
        else:
            parts.append(axis.kind.value)
    return "[" + ", ".join(parts) + "]"


# ---------------------------------------------------------------------------
# FK1xx: declared vs. inferred intents
# ---------------------------------------------------------------------------
def _intent_findings(spec: KernelSpec, facts: KernelFacts) -> List[Finding]:
    findings: List[Finding] = []
    declared = {a.name: a for a in spec.args}

    # undeclared names referenced by the body
    for name in sorted(facts.referenced_names - set(declared)):
        accesses = facts.reads(name) + facts.writes(name)
        line = min(a.line for a in accesses)
        close = difflib.get_close_matches(name, declared, n=1)
        findings.append(rule("FK103").finding(
            f"body references {name!r}, which is not a declared argument",
            kernel=spec.name, arg=name, location=_loc(facts, line),
            hint=f"did you mean {close[0]!r}?" if close else
                 f"declare it: buffer_arg({name!r}, ...)",
        ))

    for arg in spec.args:
        written = facts.writes(arg.name)
        read = facts.reads(arg.name)
        if not arg.is_buffer:
            if written:
                findings.append(rule("FK104").finding(
                    f"scalar argument {arg.name!r} is written by the body",
                    kernel=spec.name, arg=arg.name,
                    location=_loc(facts, written[0].line),
                    hint="scalars are passed by value per work-group; use a "
                         "buffer_arg with intent=out instead",
                ))
            elif not read:
                findings.append(rule("FK112").finding(
                    f"scalar argument {arg.name!r} is never referenced",
                    kernel=spec.name, arg=arg.name,
                    hint="drop it from the signature",
                ))
            continue

        if written and not arg.intent.is_written:
            findings.append(rule("FK101").finding(
                f"buffer {arg.name!r} is written by the body but declared "
                f"intent='in': it never enters out_args, so cooperative "
                f"runs drop the CPU partition's results at merge time",
                kernel=spec.name, arg=arg.name,
                location=_loc(facts, written[0].line),
                hint=f"declare buffer_arg({arg.name!r}, Intent."
                     f"{'INOUT' if read else 'OUT'})",
            ))
        if read and arg.intent.is_written and not arg.intent.is_read:
            findings.append(rule("FK102").finding(
                f"buffer {arg.name!r} is declared 'out' but the body reads "
                f"its prior contents",
                kernel=spec.name, arg=arg.name,
                location=_loc(facts, read[0].line),
                hint=f"declare buffer_arg({arg.name!r}, Intent.INOUT)",
            ))
        if not written and arg.intent.is_written:
            findings.append(rule("FK110").finding(
                f"buffer {arg.name!r} is declared "
                f"'{arg.intent.value}' but never written: every kernel "
                f"launch pays a redundant original-copy, transfer and merge "
                f"for it",
                kernel=spec.name, arg=arg.name,
                hint=f"declare buffer_arg({arg.name!r}) (intent=in)"
                     if read else f"drop {arg.name!r} or declare intent=in",
            ))
        elif written and not read and arg.intent.is_read and arg.intent.is_written:
            findings.append(rule("FK111").finding(
                f"buffer {arg.name!r} is declared 'inout' but its prior "
                f"contents are never read",
                kernel=spec.name, arg=arg.name,
                hint=f"declare buffer_arg({arg.name!r}, Intent.OUT)",
            ))
        if not written and not read and not arg.intent.is_written:
            findings.append(rule("FK112").finding(
                f"buffer {arg.name!r} is never referenced by the body",
                kernel=spec.name, arg=arg.name,
                hint="drop it from the signature",
            ))
    return findings


# ---------------------------------------------------------------------------
# FK2xx: work-group race detection
# ---------------------------------------------------------------------------
def _race_findings(spec: KernelSpec, facts: KernelFacts) -> List[Finding]:
    findings: List[Finding] = []
    declared = {a.name for a in spec.args}
    partition_dims = set(facts.tile_dims)
    written = sorted(facts.written_names & declared)

    for expr, line in dict.fromkeys(facts.unresolved_keys):
        findings.append(rule("FK203").finding(
            f"cannot resolve buffer key {expr!r}: accesses through it are "
            f"invisible to intent and race analysis",
            kernel=spec.name, location=_loc(facts, line),
            hint="use a string literal or a closure variable bound to one",
        ))

    # the write→tile mapping per buffer: axis position -> NDRange dim
    for name in written:
        writes = facts.writes(name)
        spec_arg = spec.arg(name)
        if not spec_arg.is_buffer:
            continue  # FK104 already covers scalar writes
        mapping: Dict[int, int] = {}
        for access in writes:
            covered = access.tile_dims
            if not partition_dims:
                findings.append(rule("FK201").finding(
                    f"write to {name!r} in a body that never derives "
                    f"indices from the work-group tile: every group writes "
                    f"the same locations, so a flattened-ID partition "
                    f"(Fig. 7) races on it",
                    kernel=spec.name, arg=name,
                    location=_loc(facts, access.line),
                    hint="index through ctx.rows()/ctx.cols()/"
                         "ctx.item_range(d)",
                ))
                continue
            missing = partition_dims - covered
            if missing:
                dims = ", ".join(str(d) for d in sorted(missing))
                findings.append(rule("FK201").finding(
                    f"write to {name!r} {_describe_axes(access)} is not "
                    f"pinned to the group's tile in NDRange dim(s) {dims}: "
                    f"groups that differ only in those dims write the same "
                    f"elements, racing across the device partition",
                    kernel=spec.name, arg=name,
                    location=_loc(facts, access.line),
                    hint="derive the index from ctx.item_range"
                         f"({sorted(missing)[0]})",
                ))
                continue
            for pos, axis in enumerate(access.axes):
                if axis.kind is AxisKind.TILE and pos not in mapping:
                    mapping[pos] = axis.dim

        # reads of a written buffer must stay inside the write's tile
        for access in facts.reads(name):
            if not access.subscripted:
                findings.append(rule("FK202").finding(
                    f"whole-variable read of written buffer {name!r}: the "
                    f"value outside the group's own tile is produced by "
                    f"other groups, possibly on the other device, and is "
                    f"unmerged at read time",
                    kernel=spec.name, arg=name,
                    location=_loc(facts, access.line),
                    hint="read only the group's own tile of a written "
                         "buffer; stage cross-group data in an 'in' buffer "
                         "written by a previous kernel",
                ))
                continue
            bad = [
                pos for pos, dim in mapping.items()
                if pos >= len(access.axes)
                or access.axes[pos].kind is not AxisKind.TILE
                or access.axes[pos].dim != dim
            ]
            if bad:
                findings.append(rule("FK202").finding(
                    f"read of written buffer {name!r} "
                    f"{_describe_axes(access)} leaves the group's tile on "
                    f"subscript axis {bad[0]} (writes pin it to NDRange "
                    f"dim {mapping[bad[0]]}): cross-group values are "
                    f"unmerged during execution",
                    kernel=spec.name, arg=name,
                    location=_loc(facts, access.line),
                    hint="read the same tile slice the writes use",
                ))
    return findings


# ---------------------------------------------------------------------------
# FK3xx: abort-check placement (§6.4/§6.5)
# ---------------------------------------------------------------------------
def _abort_findings(spec: KernelSpec, facts: Optional[KernelFacts],
                    abort_in_loops: bool, loop_unroll: bool) -> List[Finding]:
    findings: List[Finding] = []
    iters = spec.cost.loop_iters
    long_loop = iters >= LONG_LOOP_ITERS
    if long_loop and not abort_in_loops:
        findings.append(rule("FK301").finding(
            f"kernel loops {iters} iterations per work-group but the GPU "
            f"variant carries no in-loop abort checks: a group started "
            f"just before CPU completion runs to the end instead of "
            f"aborting (§6.4)",
            kernel=spec.name,
            hint="enable FluidiCLConfig.abort_in_loops (gpu_fluidic_variant"
                 "(abort_in_loops=True))",
        ))
    if long_loop and abort_in_loops and not loop_unroll \
            and spec.cost.no_unroll_penalty > 1.01:
        findings.append(rule("FK302").finding(
            f"in-loop abort checks inhibit compiler unrolling and the "
            f"unrolling fix-up is off: every work-group pays a "
            f"{spec.cost.no_unroll_penalty:.2f}x cost penalty (§6.5)",
            kernel=spec.name,
            hint="enable FluidiCLConfig.loop_unroll",
        ))
    if facts is not None and facts.analyzable and facts.loops and iters <= 1:
        loop = facts.loops[0]
        findings.append(rule("FK303").finding(
            f"body contains an explicit {loop.kind}-loop but the cost "
            f"model declares loop_iters={iters}: abort-check granularity "
            f"and the no-unroll penalty are understated",
            kernel=spec.name, location=_loc(facts, loop.line) if facts else None,
            hint="set WorkGroupCost.loop_iters to the real trip count",
        ))
    return findings


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
_REPORT_CACHE: Dict[Tuple, LintReport] = {}


def analyze_kernel(spec: KernelSpec, *, abort_in_loops: bool = True,
                   loop_unroll: bool = True) -> LintReport:
    """Statically analyze one kernel; returns its :class:`LintReport`.

    ``abort_in_loops``/``loop_unroll`` describe the GPU-variant
    transformation the kernel will run under (the runtime gate passes its
    ``FluidiCLConfig``; standalone callers get the paper's defaults).
    """
    key: Optional[Tuple]
    try:
        key = (spec.name, spec.version, spec.body, spec.args,
               spec.cost.loop_iters, spec.cost.no_unroll_penalty,
               abort_in_loops, loop_unroll)
        cached = _REPORT_CACHE.get(key)
        if cached is not None:
            return cached
    except TypeError:
        key = None

    report = LintReport(kernel=spec.name, version=spec.version)
    facts = _facts_for(spec.body)
    if not facts.analyzable:
        report.add(rule("FK210").finding(
            f"body of kernel {spec.name!r} is not statically analyzable "
            f"({facts.reason}): intent and race rules were skipped",
            kernel=spec.name,
            hint="define the body as a module-level function",
        ))
    else:
        for finding in _intent_findings(spec, facts):
            report.add(finding)
        for finding in _race_findings(spec, facts):
            report.add(finding)
    for finding in _abort_findings(
            spec, facts if facts.analyzable else None,
            abort_in_loops, loop_unroll):
        report.add(finding)

    if key is not None:
        _REPORT_CACHE[key] = report
    return report


def analyze_app(app, *, abort_in_loops: bool = True,
                loop_unroll: bool = True) -> List[LintReport]:
    """Every static report for one app, in one list.

    One report per kernel ``app.kernel_specs()`` names (none when the app
    exposes no specs), then — for a ``PipelineApp`` — its whole-pipeline
    FK4xx/FK5xx report (version ``"pipeline"``).
    """
    reports = [
        analyze_kernel(spec, abort_in_loops=abort_in_loops,
                       loop_unroll=loop_unroll)
        for spec in app.kernel_specs() or ()
    ]
    from repro.workloads.pipeline import PipelineApp

    if isinstance(app, PipelineApp):
        reports.append(app.analyze())
    return reports
