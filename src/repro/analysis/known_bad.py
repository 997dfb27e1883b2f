"""Deliberately broken kernels and pipelines exercising the analyzers.

Mirrors the ``check --known-bad`` self-test pattern: each fixture is a
kernel, or a small ``(decls, stages)`` pipeline, with one planted defect
and the rule ID the analyzer must report for it.
``python -m repro.harness lint --known-bad`` (and the tier-1 tests) run
every case in :data:`KNOWN_BAD_CASES` and fail if any defect goes
undetected or is misclassified — guarding the analyzers themselves
against regressions.

The kernel bodies are real, runnable work-group kernels: the
under-declared-out case is also launched cooperatively by the end-to-end
gate test to show the corruption the linter prevents (merge drops the CPU
partition's results, paper §4.1).  Each pipeline fixture is structurally
valid — it passes ``validate_pipeline`` — and carries exactly one
inter-stage FK4xx/FK5xx defect.  Bodies are module-level functions (the
facts extractor requires retrievable source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, Union

from repro.analysis.analyzer import analyze_kernel
from repro.analysis.diagnostics import LintReport
from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.ocl.ndrange import NDRange

# see repro.analysis.pipeline_facts: repro.polybench must finish loading
# before repro.workloads.pipeline is imported fresh (import cycle)
import repro.polybench  # noqa: F401
from repro.workloads.pipeline import (
    BufferDecl,
    HostStage,
    KernelStage,
    Stage,
    WhileStage,
)

__all__ = ["KnownBadCase", "KNOWN_BAD_CASES"]

_COST = WorkGroupCost(flops=1e6, bytes_read=1e4, bytes_written=1e4)
_LONG_COST = WorkGroupCost(flops=1e6, bytes_read=1e4, bytes_written=1e4,
                           loop_iters=4096)


# -- FK101: under-declared write -------------------------------------------
def _under_declared_body(ctx):
    rows = ctx.rows()
    # y is written but the signature below declares it intent='in'
    ctx["y"][rows] = 2.0 * ctx["x"][rows]


def under_declared_out_kernel() -> KernelSpec:
    return KernelSpec(
        name="bad_under_declared_out",
        args=(buffer_arg("x"), buffer_arg("y")),  # y should be Intent.OUT
        body=_under_declared_body,
        cost=_COST,
    )


# -- FK201: cross-work-group write -----------------------------------------
def _cross_group_write_body(ctx):
    rows = ctx.rows()
    # every group writes the whole of y, racing across the partition
    ctx["y"][:] = ctx["x"][rows].sum()


def cross_group_write_kernel() -> KernelSpec:
    return KernelSpec(
        name="bad_cross_group_write",
        args=(buffer_arg("x"), buffer_arg("y", Intent.OUT)),
        body=_cross_group_write_body,
        cost=_COST,
    )


# -- FK202: cross-work-group read of a written buffer ----------------------
def _cross_group_read_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["x"][rows] + ctx["y"].mean()


def cross_group_read_kernel() -> KernelSpec:
    return KernelSpec(
        name="bad_cross_group_read",
        args=(buffer_arg("x"), buffer_arg("y", Intent.INOUT)),
        body=_cross_group_read_body,
        cost=_COST,
    )


# -- FK301: long loop without in-loop abort checks -------------------------
def _long_loop_body(ctx):
    rows = ctx.rows()
    acc = ctx["x"][rows] * 0.0
    for _ in range(8):
        acc = acc + ctx["x"][rows]
    ctx["y"][rows] = acc


def missing_abort_kernel() -> KernelSpec:
    return KernelSpec(
        name="bad_missing_abort_long_loop",
        args=(buffer_arg("x"), buffer_arg("y", Intent.OUT)),
        body=_long_loop_body,
        cost=_LONG_COST,
    )


# -- FK103: undeclared argument --------------------------------------------
def _unknown_arg_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["xs"][rows]  # declared name is 'x'


def unknown_arg_kernel() -> KernelSpec:
    return KernelSpec(
        name="bad_unknown_arg",
        args=(buffer_arg("x"), buffer_arg("y", Intent.OUT)),
        body=_unknown_arg_body,
        cost=_COST,
    )


# -- FK104: scalar written -------------------------------------------------
def _scalar_write_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["x"][rows] * ctx["n"]
    ctx["n"] = 0


def scalar_write_kernel() -> KernelSpec:
    return KernelSpec(
        name="bad_scalar_write",
        args=(buffer_arg("x"), buffer_arg("y", Intent.OUT), scalar_arg("n")),
        body=_scalar_write_body,
        cost=_COST,
    )


# -- FK110: over-declared write --------------------------------------------
def _over_declared_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["x"][rows] + ctx["z"][rows]


def over_declared_out_kernel() -> KernelSpec:
    return KernelSpec(
        name="bad_over_declared_out",
        args=(buffer_arg("x"), buffer_arg("y", Intent.OUT),
              buffer_arg("z", Intent.OUT)),  # z is only ever read
        body=_over_declared_body,
        cost=_COST,
    )


# -- pipeline fixtures (FK4xx/FK5xx) ---------------------------------------
N, LOCAL = 64, 8
_ND = NDRange(N, LOCAL)

#: a pipeline fixture: its buffer declarations and its stage tree
Pipeline = Tuple[Tuple[BufferDecl, ...], Tuple[Stage, ...]]


def _spec(name, args, body, group_weights=None) -> KernelSpec:
    return KernelSpec(name=name, args=args, body=body, cost=_COST,
                      group_weights=group_weights)


# -- FK401: undeclared inter-stage write read downstream --------------------
def _fk401_produce_body(ctx):
    rows = ctx.rows()
    ctx["tmp"][rows] = 2.0 * ctx["x"][rows]


def _fk401_sneaky_body(ctx):
    rows = ctx.rows()
    ctx["z"][rows] = ctx["x"][rows] + 1.0
    # tmp is bound with intent='in' below: an undeclared inter-stage WAW
    ctx["tmp"][rows] = 0.5 * ctx["x"][rows]


def _fk401_consume_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["tmp"][rows] + 1.0


def undeclared_stage_write() -> Pipeline:
    decls = (
        BufferDecl("x", (N,), init="x"),
        BufferDecl("tmp", (N,)),
        BufferDecl("z", (N,)),
        BufferDecl("y", (N,), read="y"),
    )
    stages = (
        KernelStage(
            _spec("kp_produce",
                  (buffer_arg("x"), buffer_arg("tmp", Intent.OUT)),
                  _fk401_produce_body),
            _ND, binds={"x": "x", "tmp": "tmp"}),
        KernelStage(
            _spec("kp_sneaky",
                  (buffer_arg("x"), buffer_arg("tmp"),  # should be OUT
                   buffer_arg("z", Intent.OUT)),
                  _fk401_sneaky_body),
            _ND, binds={"x": "x", "tmp": "tmp", "z": "z"}),
        KernelStage(
            _spec("kp_consume",
                  (buffer_arg("tmp"), buffer_arg("y", Intent.OUT)),
                  _fk401_consume_body),
            _ND, binds={"tmp": "tmp", "y": "y"}),
    )
    return decls, stages


# -- FK402: write-after-write with no intervening reader --------------------
def _fk402_first_body(ctx):
    rows = ctx.rows()
    ctx["t"][rows] = 2.0 * ctx["x"][rows]


def _fk402_second_body(ctx):
    rows = ctx.rows()
    ctx["t"][rows] = 3.0 * ctx["x"][rows]


def _fk402_out_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["t"][rows]


def unordered_waw() -> Pipeline:
    decls = (
        BufferDecl("x", (N,), init="x"),
        BufferDecl("t", (N,)),
        BufferDecl("y", (N,), read="y"),
    )
    stages = (
        KernelStage(
            _spec("kp_first",
                  (buffer_arg("x"), buffer_arg("t", Intent.OUT)),
                  _fk402_first_body),
            _ND, binds={"x": "x", "t": "t"}),
        # overwrites t without reading it; nothing read kp_first's value
        KernelStage(
            _spec("kp_second",
                  (buffer_arg("x"), buffer_arg("t", Intent.OUT)),
                  _fk402_second_body),
            _ND, binds={"x": "x", "t": "t"}),
        KernelStage(
            _spec("kp_out",
                  (buffer_arg("t"), buffer_arg("y", Intent.OUT)),
                  _fk402_out_body),
            _ND, binds={"t": "t", "y": "y"}),
    )
    return decls, stages


# -- FK403: shrinking data-dependent NDRange vs. full-extent read -----------
def _fk403_write_body(ctx):
    rows = ctx.rows()
    ctx["buf"][rows] = 2.0 * ctx["front"][rows]


def _fk403_read_body(ctx):
    rows = ctx.rows()
    # whole-variable read: covers elements beyond the shrunken range
    ctx["y"][rows] += ctx["buf"].sum()


def shrinking_extent() -> Pipeline:
    decls = (
        BufferDecl("front", (N,), init="front"),
        BufferDecl("buf", (N,)),
        BufferDecl("y", (N,), read="y"),
    )
    stages = (
        WhileStage(
            "shrink",
            cond=lambda state: state.get("n", 0) > 0,
            body=(
                KernelStage(
                    _spec("kp_shrink_write",
                          (buffer_arg("front"),
                           buffer_arg("buf", Intent.OUT)),
                          _fk403_write_body),
                    # data-dependent launch geometry: the range shrinks
                    lambda state: NDRange(state["n"], LOCAL),
                    binds={"front": "front", "buf": "buf"}),
                KernelStage(
                    _spec("kp_full_read",
                          (buffer_arg("buf"),
                           buffer_arg("y", Intent.INOUT)),
                          _fk403_read_body),
                    _ND, binds={"buf": "buf", "y": "y"}),
            ),
        ),
    )
    return decls, stages


# -- FK404: host stage blindly overwrites a kernel-produced buffer ----------
def _fk404_partial_body(ctx):
    rows = ctx.rows()
    ctx["s"][rows] = 2.0 * ctx["x"][rows]


def _fk404_peek_body(ctx):
    rows = ctx.rows()
    ctx["z"][rows] = ctx["s"][rows] + 1.0


def _fk404_use_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["s"][rows] * 3.0


def _fk404_clobber(host, state):
    import numpy as np

    host.write("s", np.zeros(N, dtype=np.float32))


def host_clobber() -> Pipeline:
    decls = (
        BufferDecl("x", (N,), init="x"),
        BufferDecl("s", (N,)),
        BufferDecl("z", (N,)),
        BufferDecl("y", (N,), read="y"),
    )
    stages = (
        KernelStage(
            _spec("kp_partial",
                  (buffer_arg("x"), buffer_arg("s", Intent.OUT)),
                  _fk404_partial_body),
            _ND, binds={"x": "x", "s": "s"}),
        # an intervening reader, so only the blind host clobber is planted
        KernelStage(
            _spec("kp_peek",
                  (buffer_arg("s"), buffer_arg("z", Intent.OUT)),
                  _fk404_peek_body),
            _ND, binds={"s": "s", "z": "z"}),
        HostStage("hp_clobber", _fk404_clobber, reads=(), writes=("s",)),
        KernelStage(
            _spec("kp_use",
                  (buffer_arg("s"), buffer_arg("y", Intent.OUT)),
                  _fk404_use_body),
            _ND, binds={"s": "s", "y": "y"}),
    )
    return decls, stages


# -- FK405: group_weights length vs. NDRange --------------------------------
def _fk405_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = 2.0 * ctx["x"][rows]


def weights_mismatch() -> Pipeline:
    decls = (
        BufferDecl("x", (N,), init="x"),
        BufferDecl("y", (N,), read="y"),
    )
    stages = (
        KernelStage(
            # 4 weights for an 8-group NDRange
            _spec("kp_weighted",
                  (buffer_arg("x"), buffer_arg("y", Intent.OUT)),
                  _fk405_body, group_weights=(1.0, 2.0, 1.0, 2.0)),
            _ND, binds={"x": "x", "y": "y"}),
    )
    return decls, stages


# -- FK501: transposed tile composition across the merge boundary -----------
_N2, _L2 = 16, 4
_ND2 = NDRange((_N2, _N2), (_L2, _L2))


def _fk501_prod_body(ctx):
    rows = ctx.rows()
    cols = ctx.cols()
    ctx["t"][rows, cols] = 2.0 * ctx["a"][rows, cols]


def _fk501_cons_body(ctx):
    rows = ctx.rows()
    cols = ctx.cols()
    # transposed: reads dim-1 tiles on the axis the producer wrote dim-0
    ctx["y"][rows, cols] = ctx["t"][cols, rows]


def transposed_tile() -> Pipeline:
    decls = (
        BufferDecl("a", (_N2, _N2), init="a"),
        BufferDecl("t", (_N2, _N2)),
        BufferDecl("y", (_N2, _N2), read="y"),
    )
    stages = (
        KernelStage(
            _spec("kp_tile_prod",
                  (buffer_arg("a"), buffer_arg("t", Intent.OUT)),
                  _fk501_prod_body),
            _ND2, binds={"a": "a", "t": "t"}),
        KernelStage(
            _spec("kp_tile_cons",
                  (buffer_arg("t"), buffer_arg("y", Intent.OUT)),
                  _fk501_cons_body),
            _ND2, binds={"t": "t", "y": "y"}),
    )
    return decls, stages


# -- FK502: tile rank mismatch across the merge boundary --------------------
def _fk502_prod_body(ctx):
    rows = ctx.rows()
    ctx["t"][rows] = 2.0 * ctx["x"][rows]


def _fk502_cons_body(ctx):
    rows = ctx.rows()
    cols = ctx.cols()
    ctx["y"][rows, cols] = ctx["t"][rows, cols]


def rank_mismatch() -> Pipeline:
    decls = (
        BufferDecl("x", (N,), init="x"),
        BufferDecl("t", (N,)),
        BufferDecl("y", (8, 8), read="y"),
    )
    stages = (
        KernelStage(
            _spec("kp_rank_prod",
                  (buffer_arg("x"), buffer_arg("t", Intent.OUT)),
                  _fk502_prod_body),
            _ND, binds={"x": "x", "t": "t"}),
        KernelStage(
            _spec("kp_rank_cons",
                  (buffer_arg("t"), buffer_arg("y", Intent.OUT)),
                  _fk502_cons_body),
            NDRange((8, 8), (4, 4)), binds={"t": "t", "y": "y"}),
    )
    return decls, stages


@dataclass(frozen=True)
class KnownBadCase:
    """One planted defect and the rule the analyzer must report for it."""

    name: str
    expected_rule: str
    #: builds the broken kernel, or the broken ``(decls, stages)`` pipeline
    factory: Callable[[], Union[KernelSpec, Pipeline]]
    #: GPU-variant flag a kernel case is analyzed under
    abort_in_loops: bool = True
    description: str = ""

    def analyze(self) -> LintReport:
        """The analyzer's report on the planted defect."""
        target = self.factory()
        if isinstance(target, KernelSpec):
            return analyze_kernel(target, abort_in_loops=self.abort_in_loops)
        from repro.analysis.pipeline_analyzer import analyze_pipeline

        decls, stages = target
        return analyze_pipeline(decls, stages, name=self.name)


KNOWN_BAD_CASES: Tuple[KnownBadCase, ...] = (
    KnownBadCase(
        "under-declared-out", "FK101", under_declared_out_kernel,
        description="buffer written but declared 'in'; cooperative merge "
                    "drops the CPU partition's results"),
    KnownBadCase(
        "cross-group-write", "FK201", cross_group_write_kernel,
        description="write not pinned to the group's own tile; flattened-ID "
                    "partition races on it"),
    KnownBadCase(
        "cross-group-read", "FK202", cross_group_read_kernel,
        description="whole-variable read of a written buffer; sees unmerged "
                    "cross-group values"),
    KnownBadCase(
        "missing-abort-long-loop", "FK301", missing_abort_kernel,
        abort_in_loops=False,
        description="4096-iteration loop with in-loop abort checks disabled"),
    KnownBadCase(
        "unknown-arg", "FK103", unknown_arg_kernel,
        description="body references a name absent from the signature"),
    KnownBadCase(
        "scalar-write", "FK104", scalar_write_kernel,
        description="body assigns to a by-value scalar argument"),
    KnownBadCase(
        "over-declared-out", "FK110", over_declared_out_kernel,
        description="buffer declared 'out' but never written; pays a "
                    "redundant transfer and merge"),
    KnownBadCase(
        "undeclared-stage-write", "FK401", undeclared_stage_write,
        description="a stage body writes a buffer it binds with intent="
                    "'in' and a later stage reads it: the write never "
                    "merges, so the reader sees a corrupt partition mix"),
    KnownBadCase(
        "unordered-waw", "FK402", unordered_waw,
        description="two stages write the same buffer with no reader "
                    "between them: no dependency edge orders the writes"),
    KnownBadCase(
        "shrinking-extent", "FK403", shrinking_extent,
        description="loop-carried buffer written under a data-dependent "
                    "NDRange but read at full extent: iterations mix "
                    "wherever the range shrank"),
    KnownBadCase(
        "host-clobber", "FK404", host_clobber,
        description="a host stage overwrites a kernel-produced buffer it "
                    "never read: the live version is clobbered blind"),
    KnownBadCase(
        "group-weights-mismatch", "FK405", weights_mismatch,
        description="group_weights length cannot match the stage's "
                    "NDRange group count"),
    KnownBadCase(
        "transposed-tile", "FK501", transposed_tile,
        description="consumer reads the transposed tile of what its "
                    "producer wrote: the flattened-ID partition no longer "
                    "covers the read across the merge boundary"),
    KnownBadCase(
        "rank-mismatch", "FK502", rank_mismatch,
        description="consumer recomposes a rank-1 partitioned buffer "
                    "through a rank-2 tile subscript"),
)
