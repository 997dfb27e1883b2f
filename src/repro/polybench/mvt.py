"""MVT: two independent mat-vec transposes (extension benchmark).

``x1 += A y1`` and ``x2 += A^T y2`` are independent, opposite-affinity
kernels over ``inout`` vectors — a compact stress of the merge path on
small buffers plus the per-kernel device-affinity adaptation.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = ["MvtApp", "ROWS_PER_GROUP"]

ROWS_PER_GROUP = 8


def _cost(n: int, gpu_mem: float, cpu_mem: float) -> WorkGroupCost:
    itemsize = np.dtype(DTYPE).itemsize
    return WorkGroupCost(
        flops=2.0 * ROWS_PER_GROUP * n,
        bytes_read=ROWS_PER_GROUP * n * itemsize,
        bytes_written=ROWS_PER_GROUP * itemsize,
        loop_iters=max(1, n // 8),
        compute_efficiency={"cpu": 0.85, "gpu": 0.60},
        memory_efficiency={"cpu": cpu_mem, "gpu": gpu_mem},
        no_unroll_penalty=1.35,
    )


def _mvt1_body(ctx) -> None:
    rows = ctx.rows()
    ctx["x1"][rows] = ctx["x1"][rows] + ctx["A"][rows, :] @ ctx["y1"]


def _mvt2_body(ctx) -> None:
    cols = ctx.rows()
    ctx["x2"][cols] = ctx["x2"][cols] + ctx["A"][:, cols].T @ ctx["y2"]


def mvt_kernel1(n: int) -> KernelSpec:
    return KernelSpec(
        name="mvt_kernel1",
        args=(buffer_arg("A"), buffer_arg("y1"), buffer_arg("x1", Intent.INOUT)),
        body=_mvt1_body,
        cost=_cost(n, gpu_mem=0.10, cpu_mem=0.28),
        # Row-local along dim 0 (reads and writes only x1[ctx.rows()]).
        span_safe=True,
    )


def mvt_kernel2(n: int) -> KernelSpec:
    return KernelSpec(
        name="mvt_kernel2",
        args=(buffer_arg("A"), buffer_arg("y2"), buffer_arg("x2", Intent.INOUT)),
        body=_mvt2_body,
        cost=_cost(n, gpu_mem=0.02, cpu_mem=0.25),
        # Dim 0 indexes columns of A and x2; still row-local in span terms.
        span_safe=True,
    )


class MvtApp(PolybenchApp):
    """Polybench MVT with an ``n x n`` matrix."""

    name = "mvt"

    def __init__(self, n: int = 4096, seed: int = 7):
        super().__init__(seed)
        if n % ROWS_PER_GROUP != 0:
            raise ValueError(f"n must be a multiple of {ROWS_PER_GROUP}")
        self.n = n

    @property
    def input_size_label(self) -> str:
        return f"({self.n}, {self.n})"

    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        n = self.n
        return {
            "A": rng.standard_normal((n, n)).astype(DTYPE),
            "x1": rng.standard_normal(n).astype(DTYPE),
            "x2": rng.standard_normal(n).astype(DTYPE),
            "y1": rng.standard_normal(n).astype(DTYPE),
            "y2": rng.standard_normal(n).astype(DTYPE),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a64 = inputs["A"].astype(np.float64)
        return {
            "x1": inputs["x1"].astype(np.float64) + a64 @ inputs["y1"].astype(np.float64),
            "x2": inputs["x2"].astype(np.float64) + a64.T @ inputs["y2"].astype(np.float64),
        }

    def _ndrange(self) -> NDRange:
        return NDRange(self.n, ROWS_PER_GROUP)

    def kernel_metas(self) -> List[KernelMeta]:
        nd = self._ndrange()
        return [KernelMeta("mvt_kernel1", nd), KernelMeta("mvt_kernel2", nd)]

    def kernel_specs(self) -> List[KernelSpec]:
        return [mvt_kernel1(self.n), mvt_kernel2(self.n)]

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        n = self.n
        buffers = {
            "A": runtime.create_buffer("A", (n, n), DTYPE),
            "x1": runtime.create_buffer("x1", (n,), DTYPE),
            "x2": runtime.create_buffer("x2", (n,), DTYPE),
            "y1": runtime.create_buffer("y1", (n,), DTYPE),
            "y2": runtime.create_buffer("y2", (n,), DTYPE),
        }
        for name in buffers:
            runtime.enqueue_write_buffer(buffers[name], inputs[name])
        nd = self._ndrange()
        runtime.enqueue_nd_range_kernel(
            mvt_kernel1(n), nd,
            {"A": buffers["A"], "y1": buffers["y1"], "x1": buffers["x1"]},
        )
        runtime.enqueue_nd_range_kernel(
            mvt_kernel2(n), nd,
            {"A": buffers["A"], "y2": buffers["y2"], "x2": buffers["x2"]},
        )
        x1 = np.empty(n, dtype=DTYPE)
        x2 = np.empty(n, dtype=DTYPE)
        runtime.enqueue_read_buffer(buffers["x1"], x1)
        runtime.enqueue_read_buffer(buffers["x2"], x2)
        return {"x1": x1, "x2": x2}
