"""Behavioral unit tests of the FK4xx/FK5xx pipeline rule passes.

The planted-defect fixtures prove each rule *fires*
(``test_pipeline_known_bad``); these tests pin the other half of every
rule's contract — the exemptions that keep the shipped suite (and any
correct pipeline) clean: self-reads and intervening readers for FK402,
scalar-bounded reads for FK403 (the BFS ``cand[:nfront]`` idiom),
read-then-write host stages for FK404, and matching tile geometry for
FK501/FK502.  Plus the ``predicted_writers`` export the runtime
sanitizer is built on.
"""

import numpy as np

from repro.analysis.pipeline_analyzer import (
    HOST_PRODUCER,
    analyze_pipeline,
    predicted_writers,
)
from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.ocl.ndrange import NDRange
from repro.workloads.pipeline import (
    BufferDecl,
    HostStage,
    KernelStage,
    WhileStage,
)

N, LOCAL = 64, 8
_COST = WorkGroupCost(flops=1e6, bytes_read=1e4, bytes_written=1e4)
_ND = NDRange(N, LOCAL)


def _spec(name, args, body):
    return KernelSpec(name=name, args=args, body=body, cost=_COST)


# -- module-level kernel bodies (the facts extractor needs source) ----------
def _produce_body(ctx):
    rows = ctx.rows()
    ctx["t"][rows] = 2.0 * ctx["x"][rows]


def _inout_body(ctx):
    rows = ctx.rows()
    ctx["t"][rows] = ctx["t"][rows] + 1.0


def _consume_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["t"][rows] + 1.0


def _overwrite_body(ctx):
    rows = ctx.rows()
    ctx["t"][rows] = 3.0 * ctx["x"][rows]


def _consume2_body(ctx):
    rows = ctx.rows()
    ctx["z"][rows] = ctx["t"][rows] - 1.0


def _loop_write_body(ctx):
    rows = ctx.rows()
    ctx["buf"][rows] = ctx["buf"][rows] * 0.5


def _bounded_read_body(ctx):
    rows = ctx.rows()
    k = int(ctx["count"][0])
    ctx["y"][rows] = ctx["y"][rows] + ctx["buf"][:k].sum()


def _tile2_write_body(ctx):
    rows, cols = ctx.rows(0), ctx.rows(1)
    ctx["t"][rows, cols] = 1.0


def _tile2_read_body(ctx):
    rows, cols = ctx.rows(0), ctx.rows(1)
    ctx["y"][rows, cols] = ctx["t"][rows, cols] * 2.0


def _decls(*names, init=(), read=()):
    out = []
    for name in names:
        out.append(BufferDecl(
            name, (N,), np.float32,
            init=name if name in init else None,
            read=name if name in read else None,
        ))
    return out


def _produce(): return KernelStage(
    spec=_spec("kp_produce",
               (buffer_arg("x"), buffer_arg("t", Intent.OUT)),
               _produce_body),
    ndrange=_ND, binds={"x": "x", "t": "t"})


def _consume(): return KernelStage(
    spec=_spec("kp_consume",
               (buffer_arg("t"), buffer_arg("y", Intent.OUT)),
               _consume_body),
    ndrange=_ND, binds={"t": "t", "y": "y"})


class TestCleanPipeline:
    def _pipeline(self):
        return (_decls("x", "t", "y", init=("x",), read=("y",)),
                [_produce(), _consume()])

    def test_no_findings(self):
        decls, stages = self._pipeline()
        report = analyze_pipeline(decls, stages, name="toy")
        assert report.findings == []
        assert report.fluidic_safe
        assert report.label == "pipeline:toy"


class TestFk402Exemptions:
    def test_self_read_is_a_dependency_edge(self):
        # write -> inout-rewrite -> read: the INOUT stage reads what it
        # overwrites, so the writes are ordered and FK402 stays silent
        decls = _decls("x", "t", "y", init=("x",), read=("y",))
        inout = KernelStage(
            spec=_spec("kp_inout", (buffer_arg("t", Intent.INOUT),),
                       _inout_body),
            ndrange=_ND, binds={"t": "t"})
        report = analyze_pipeline(decls, [_produce(), inout, _consume()])
        assert report.findings == []

    def test_intervening_reader_orders_the_writes(self):
        decls = _decls("x", "t", "y", "z", init=("x",), read=("y", "z"))
        rewrite = KernelStage(
            spec=_spec("kp_rewrite",
                       (buffer_arg("x"), buffer_arg("t", Intent.OUT)),
                       _overwrite_body),
            ndrange=_ND, binds={"x": "x", "t": "t"})
        consume2 = KernelStage(
            spec=_spec("kp_consume2",
                       (buffer_arg("t"), buffer_arg("z", Intent.OUT)),
                       _consume2_body),
            ndrange=_ND, binds={"t": "t", "z": "z"})
        # produce -> consume (reads t) -> rewrite t -> consume2: the read
        # between the two writes of t is the ordering dependency edge
        report = analyze_pipeline(
            decls, [_produce(), _consume(), rewrite, consume2])
        assert "FK402" not in report.rule_ids()


class TestFk403Exemptions:
    def _loop(self, reader):
        decls = (_decls("x", "buf", "count", init=("x", "buf", "count"))
                 + _decls("y", read=("y",)))
        writer = KernelStage(
            spec=_spec("kp_shrink",
                       (buffer_arg("buf", Intent.INOUT),),
                       _loop_write_body),
            ndrange=lambda state: NDRange(state["n"], LOCAL),
            binds={"buf": "buf"})
        loop = WhileStage(
            name="shrink",
            cond=lambda state: state.setdefault("iters", 0) < 2,
            body=(writer, reader),
            max_iterations=4,
        )
        return decls, [loop]

    def test_scalar_bounded_read_does_not_fire(self):
        # the BFS idiom: the read is clipped by a count the host derives
        # from the same data-dependent size — classified OTHER, not FULL
        reader = KernelStage(
            spec=_spec("kp_bounded",
                       (buffer_arg("buf"), buffer_arg("count"),
                        buffer_arg("y", Intent.INOUT)),
                       _bounded_read_body),
            ndrange=_ND,
            binds={"buf": "buf", "count": "count", "y": "y"})
        decls, stages = self._loop(reader)
        report = analyze_pipeline(decls, stages)
        assert "FK403" not in report.rule_ids()

    def test_static_ndrange_writer_does_not_fire(self):
        decls = _decls("x", "t", "y", init=("x",), read=("y",))
        inout = KernelStage(
            spec=_spec("kp_inout", (buffer_arg("t", Intent.INOUT),),
                       _inout_body),
            ndrange=_ND, binds={"t": "t"})
        loop = WhileStage(
            name="steps",
            cond=lambda state: state.setdefault("iters", 0) < 2,
            body=(inout,),
            max_iterations=4,
        )
        report = analyze_pipeline(decls, [_produce(), loop, _consume()])
        assert "FK403" not in report.rule_ids()


class TestFk404Exemption:
    def test_host_stage_that_reads_first_is_fine(self):
        decls = _decls("x", "t", "y", init=("x",), read=("y",))
        folding = HostStage(
            name="hp_fold",
            fn=lambda host, state: host.write("t", host.read("t") * 2.0),
            reads=("t",), writes=("t",))
        report = analyze_pipeline(decls, [_produce(), folding, _consume()])
        assert "FK404" not in report.rule_ids()


class TestFk50xExemptions:
    def test_matching_tile_geometry_is_clean(self):
        nd2 = NDRange((16, 16), (4, 4))
        decls = [
            BufferDecl("t", (16, 16), np.float32),
            BufferDecl("y", (16, 16), np.float32, read="y"),
        ]
        producer = KernelStage(
            spec=_spec("kp_tile_w", (buffer_arg("t", Intent.OUT),),
                       _tile2_write_body),
            ndrange=nd2, binds={"t": "t"})
        consumer = KernelStage(
            spec=_spec("kp_tile_r",
                       (buffer_arg("t"), buffer_arg("y", Intent.OUT)),
                       _tile2_read_body),
            ndrange=nd2, binds={"t": "t", "y": "y"})
        report = analyze_pipeline(decls, [producer, consumer])
        assert report.findings == []


class TestFk410:
    def test_lambda_body_degrades_with_info(self):
        decls = _decls("x", "y", init=("x",), read=("y",))
        opaque = KernelStage(
            spec=_spec("kp_opaque",
                       (buffer_arg("x"), buffer_arg("y", Intent.OUT)),
                       lambda ctx: None),
            ndrange=_ND, binds={"x": "x", "y": "y"})
        report = analyze_pipeline(decls, [opaque])
        assert report.rule_ids() == ("FK410",)
        # INFO only: an opaque body degrades analysis, it does not gate
        assert report.fluidic_safe


class TestPredictedWriters:
    def test_kernel_host_and_init_writers(self):
        decls = _decls("x", "t", "y", init=("x",), read=("y",))
        folding = HostStage(
            name="hp_fold",
            fn=lambda host, state: host.write("t", host.read("t") * 2.0),
            reads=("t",), writes=("t",))
        writers = predicted_writers(decls, [_produce(), folding, _consume()])
        assert writers["x"] == {HOST_PRODUCER}
        assert writers["t"] == {"kp_produce", HOST_PRODUCER}
        assert writers["y"] == {"kp_consume"}

    def test_loop_body_writers_are_predicted(self):
        decls = _decls("x", "t", "y", init=("x",), read=("y",))
        inout = KernelStage(
            spec=_spec("kp_inout", (buffer_arg("t", Intent.INOUT),),
                       _inout_body),
            ndrange=_ND, binds={"t": "t"})
        loop = WhileStage(
            name="steps",
            cond=lambda state: state.setdefault("iters", 0) < 2,
            body=(inout,),
            max_iterations=4,
        )
        writers = predicted_writers(decls, [_produce(), loop, _consume()])
        assert writers["t"] == {"kp_produce", "kp_inout"}
