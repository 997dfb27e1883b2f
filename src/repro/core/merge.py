"""Data merging on the GPU (paper §4.3, Fig. 9).

After cooperative execution, the out/inout buffers hold partial results on
each device.  The merge kernel compares one worker front's computed data
(shipped into its landing buffer) with a pristine copy of the original
contents and copies into the anchor buffer every element that front
changed — a fully data-parallel diff+merge that runs on the anchor like
any other kernel.

With several contributing fronts the runtime enqueues one such merge per
front, pairwise in ascending front order on the in-order application
queue.  Each landing buffer differs from the pristine original only in
that front's disjoint claimed windows, so the pairwise merges commute and
their composition is the union of all contributed ranges.  The classic
CPU+GPU pair issues exactly one merge per buffer, as in the paper.

The diff granularity is the buffer's base element type, mirroring the
paper's use of the stored type metadata (they show bytes in Fig. 9 "for
illustrative purpose").
"""

from __future__ import annotations

import numpy as np

from repro.hw.cost import WorkGroupCost, wg_time
from repro.hw.specs import DeviceSpec
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.kernels.transforms import plain_variant
from repro.ocl.ndrange import NDRange

__all__ = ["MERGE_LOCAL_SIZE", "build_merge_kernel", "merge_ndrange",
           "merge_seconds"]

#: work-items (elements) per merge work-group
MERGE_LOCAL_SIZE = 4096

#: (args, cost) per element size: every merge of a same-typed buffer shares
#: the same immutable arg specs and work-group cost, and a merge is built
#: per out-buffer per kernel — rebuilding these dominated build_merge_kernel
_SPEC_PARTS_BY_ITEMSIZE: dict = {}


def _merge_body(ctx, on_diff=None, itemsize: int = 0) -> None:
    lo, hi = ctx.item_range(0)
    n = int(ctx["number_elems"])
    hi = min(hi, n)
    if lo >= hi:
        return
    cpu_flat = ctx["cpu_buf"].reshape(-1)[lo:hi]
    orig_flat = ctx["orig"].reshape(-1)[lo:hi]
    gpu_flat = ctx["gpu_buf"].reshape(-1)[lo:hi]
    changed = cpu_flat != orig_flat
    gpu_flat[changed] = cpu_flat[changed]
    if on_diff is not None:
        on_diff(int(changed.sum()) * itemsize)


def build_merge_kernel(nbytes: int, itemsize: int, on_diff=None) -> KernelSpec:
    """A merge kernel spec sized for a buffer of ``nbytes``.

    Per work-group it streams three inputs and (worst case) one output of
    ``MERGE_LOCAL_SIZE`` elements; it is bandwidth-bound and coalesces
    perfectly, so it runs at high efficiency on the GPU.

    ``on_diff``, when given, is called once per merge work-group with the
    number of bytes that group actually copied from the CPU data — the
    byte accounting behind the runtime's ``merge_done`` events (and the
    :mod:`repro.check` merge-coverage invariant).  It is observability
    only: the merge semantics are identical with or without it.
    """
    parts = _SPEC_PARTS_BY_ITEMSIZE.get(itemsize)
    if parts is None:
        per_group_bytes = MERGE_LOCAL_SIZE * itemsize
        cost = WorkGroupCost(
            flops=MERGE_LOCAL_SIZE,  # one compare per element
            bytes_read=3 * per_group_bytes,
            bytes_written=per_group_bytes,
            loop_iters=1,
            compute_efficiency={"cpu": 0.5, "gpu": 0.9},
            memory_efficiency={"cpu": 0.5, "gpu": 0.9},
        )
        args = (
            buffer_arg("cpu_buf", Intent.IN),
            buffer_arg("orig", Intent.IN),
            buffer_arg("gpu_buf", Intent.INOUT),
            scalar_arg("number_elems"),
        )
        parts = _SPEC_PARTS_BY_ITEMSIZE[itemsize] = (args, cost)
    args, cost = parts

    if on_diff is None:
        body = _merge_body
    else:
        def body(ctx, _cb=on_diff, _size=itemsize):
            _merge_body(ctx, on_diff=_cb, itemsize=_size)

    return KernelSpec(
        name="fluidicl_merge",
        args=args,
        body=body,
        cost=cost,
    )


def merge_seconds(spec: DeviceSpec, nbytes: int, itemsize: int) -> float:
    """What one diff+merge of an ``nbytes`` buffer costs on ``spec``.

    The executor's charges for the merge kernel: the launch overhead plus,
    for each wave of :func:`merge_ndrange`, the wave overhead and the
    per-group time.  The anchor prices an abort with it.
    """
    merge = plain_variant(build_merge_kernel(nbytes, itemsize))
    groups = merge_ndrange(nbytes // itemsize).total_groups
    waves = -(-groups // spec.concurrent_workgroups)
    t_wg = wg_time(merge.cost, spec, merge.time_multiplier)
    return spec.kernel_launch_overhead + waves * (spec.wave_overhead + t_wg)


def merge_ndrange(number_elems: int) -> NDRange:
    """1-D NDRange covering ``number_elems`` with full work-groups."""
    groups = max(1, -(-number_elems // MERGE_LOCAL_SIZE))
    return NDRange(groups * MERGE_LOCAL_SIZE, MERGE_LOCAL_SIZE)


def reference_merge(gpu_data: np.ndarray, cpu_data: np.ndarray,
                    orig: np.ndarray) -> np.ndarray:
    """NumPy oracle of the merge semantics (used by tests)."""
    merged = gpu_data.copy()
    changed = cpu_data != orig
    merged[changed] = cpu_data[changed]
    return merged
