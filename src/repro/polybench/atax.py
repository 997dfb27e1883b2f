"""ATAX: ``y = A^T (A x)`` (extension benchmark, beyond the paper's six).

Two bandwidth-bound matvec kernels; the first streams rows (GPU-leaning),
the second walks columns (CPU-leaning) — a milder version of BICG's split
personality, sharing the intermediate vector between the kernels, which
exercises FluidiCL's version tracking on a producer/consumer chain.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = ["AtaxApp", "ROWS_PER_GROUP"]

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


def _atax1_body(ctx) -> None:
    rows = ctx.rows()
    ctx["tmp"][rows] = ctx["A"][rows, :] @ ctx["x"]


def _atax2_body(ctx) -> None:
    cols = ctx.rows()
    ctx["y"][cols] = ctx["A"][:, cols].T @ ctx["tmp"]


def atax_kernel1(n: int) -> KernelSpec:
    return KernelSpec(
        name="atax_kernel1",
        args=(buffer_arg("A"), buffer_arg("x"), buffer_arg("tmp", Intent.OUT)),
        body=_atax1_body,
        cost=_cost(n, gpu_mem=0.10, cpu_mem=0.28),
        # Row-local along dim 0 (writes only tmp[ctx.rows()]).
        span_safe=True,
    )


def atax_kernel2(n: int) -> KernelSpec:
    return KernelSpec(
        name="atax_kernel2",
        args=(buffer_arg("A"), buffer_arg("tmp"), buffer_arg("y", Intent.OUT)),
        body=_atax2_body,
        cost=_cost(n, gpu_mem=0.03, cpu_mem=0.25),
        # Dim 0 indexes output columns of y; still row-local in span terms.
        span_safe=True,
    )


class AtaxApp(PolybenchApp):
    """Polybench ATAX with an ``n x n`` matrix."""

    name = "atax"

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
            "x": rng.standard_normal(n).astype(DTYPE),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a64 = inputs["A"].astype(np.float64)
        x64 = inputs["x"].astype(np.float64)
        return {"y": a64.T @ (a64 @ x64)}

    def _ndrange(self) -> NDRange:
        return NDRange(self.n, ROWS_PER_GROUP)

    def kernel_metas(self) -> List[KernelMeta]:
        nd = self._ndrange()
        return [KernelMeta("atax_kernel1", nd), KernelMeta("atax_kernel2", nd)]

    def kernel_specs(self) -> List[KernelSpec]:
        return [atax_kernel1(self.n), atax_kernel2(self.n)]

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        n = self.n
        buf_a = runtime.create_buffer("A", (n, n), DTYPE)
        buf_x = runtime.create_buffer("x", (n,), DTYPE)
        buf_tmp = runtime.create_buffer("tmp", (n,), DTYPE)
        buf_y = runtime.create_buffer("y", (n,), DTYPE)
        runtime.enqueue_write_buffer(buf_a, inputs["A"])
        runtime.enqueue_write_buffer(buf_x, inputs["x"])
        nd = self._ndrange()
        runtime.enqueue_nd_range_kernel(
            atax_kernel1(n), nd, {"A": buf_a, "x": buf_x, "tmp": buf_tmp}
        )
        runtime.enqueue_nd_range_kernel(
            atax_kernel2(n), nd, {"A": buf_a, "tmp": buf_tmp, "y": buf_y}
        )
        y = np.empty(n, dtype=DTYPE)
        runtime.enqueue_read_buffer(buf_y, y)
        return {"y": y}
