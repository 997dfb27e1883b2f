"""Kernel transformations mirroring the paper's source-to-source rewrites.

"In the current implementation, the kernel transformations have been done
manually.  But these are simple transformations that can be automated using
a source-to-source compiler." (paper section 5).  Here they *are* automated:
each function takes a device-agnostic :class:`KernelSpec` and returns the
:class:`KernelVariant` the corresponding rewritten OpenCL C kernel would be.

Variants are immutable and deterministic in (spec, flags): callers on hot
paths cache and reuse them across launches instead of re-transforming per
launch (a real OpenCL stack compiles once per program, not per enqueue) —
see the per-version kernel cache in :class:`repro.core.scheduler.CpuScheduler`
and the per-itemsize spec parts in :mod:`repro.core.merge`.
"""

from __future__ import annotations

from repro.kernels.dsl import KernelSpec, KernelVariant

__all__ = [
    "plain_variant",
    "gpu_fluidic_variant",
    "cpu_subkernel_variant",
]


def plain_variant(spec: KernelSpec) -> KernelVariant:
    """The untouched kernel, as a single-device vendor runtime would run it."""
    return KernelVariant(spec)


def gpu_fluidic_variant(
    spec: KernelSpec,
    abort_in_loops: bool = True,
    unroll: bool = True,
) -> KernelVariant:
    """The GPU-side FluidiCL kernel (Fig. 8 flowchart).

    Always adds the work-group-start abort check.  ``abort_in_loops``
    replicates the check inside inner loops (section 6.4) and ``unroll``
    re-applies loop unrolling around those checks (section 6.5).  The
    combinations reproduce the paper's Fig. 15 ablation:

    ========================  =====================================
    configuration              arguments
    ========================  =====================================
    ``AllOpt``                 ``abort_in_loops=True,  unroll=True``
    ``NoUnroll``               ``abort_in_loops=True,  unroll=False``
    ``NoAbortUnroll``          ``abort_in_loops=False`` (unroll moot)
    ========================  =====================================
    """
    return KernelVariant(
        spec,
        abort_checks=True,
        abort_in_loops=abort_in_loops,
        unrolled=unroll and abort_in_loops,
    )


def cpu_subkernel_variant(spec: KernelSpec, wg_split: bool = True) -> KernelVariant:
    """The CPU-side FluidiCL subkernel (Fig. 7 flowchart).

    Its flattened-group-ID range check is the launch window
    (``LaunchConfig.fid_start``/``fid_end``); with ``wg_split`` the variant
    also carries the section-6.3 rewrite (custom barrier helper, local
    buffers demoted to global) that lets one work-group spread across all
    CPU compute units when the allocation is small.
    """
    return KernelVariant(spec, wg_split=wg_split)
