"""A compiled kernel bound to its arguments (cf. ``cl_kernel``)."""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.hw.cost import wg_time
from repro.hw.specs import DeviceSpec
from repro.kernels.dsl import (
    KernelSpec,
    KernelVariant,
    WorkGroupContext,
    WorkGroupSpan,
)
from repro.ocl.buffer import Buffer
from repro.ocl.ndrange import NDRange

__all__ = ["Kernel"]


class Kernel:
    """A :class:`KernelVariant` plus bound arguments, ready to enqueue.

    Buffer arguments must live on the device the kernel is enqueued to;
    this is checked at enqueue time (discrete address spaces are the whole
    point of the exercise).
    """

    def __init__(self, variant: KernelVariant, args: Mapping[str, Any]):
        variant.spec.bind_check(args)
        for spec in variant.spec.args:
            value = args[spec.name]
            if spec.is_buffer and not isinstance(value, Buffer):
                raise TypeError(
                    f"argument {spec.name!r} of kernel {variant.name!r} "
                    f"must be a Buffer, got {type(value).__name__}"
                )
            if not spec.is_buffer and isinstance(value, Buffer):
                raise TypeError(
                    f"argument {spec.name!r} of kernel {variant.name!r} "
                    f"is scalar but got a Buffer"
                )
        self.variant = variant
        self.args: Dict[str, Any] = dict(args)
        specs = variant.spec.args
        self._scalars = {a.name: args[a.name] for a in specs
                         if not a.is_buffer}
        self._written = [(a.name, args[a.name]) for a in specs
                         if a.is_buffer and a.intent.is_written]
        self._read = [(a.name, args[a.name]) for a in specs
                      if a.is_buffer and not a.intent.is_written]

    @property
    def spec(self) -> KernelSpec:
        return self.variant.spec

    @property
    def name(self) -> str:
        return self.variant.name

    @property
    def cost(self):
        return self.variant.cost

    def buffers(self) -> Dict[str, Buffer]:
        return {
            a.name: self.args[a.name]
            for a in self.spec.args
            if a.is_buffer
        }

    def check_device(self, device) -> None:
        for name, buf in self.buffers().items():
            if buf.device is not device:
                raise ValueError(
                    f"kernel {self.name!r} argument {name!r} lives on "
                    f"{buf.device.name}, not on {device.name}"
                )

    def wg_seconds(self, spec: DeviceSpec) -> float:
        """Per-work-group time of this variant on a device."""
        return wg_time(self.cost, spec, self.variant.time_multiplier)

    def _resolved_args(self) -> Dict[str, Any]:
        """The arguments as the body sees them.

        Declared ``out``/``inout`` buffers get their writable array (see
        :attr:`Buffer.array`), declared ``in`` buffers a view that is never
        copied (:attr:`Buffer.view`).  Written buffers resolve first, so an
        ``in`` argument bound to the same buffer sees the private copy.
        """
        resolved = dict(self._scalars)
        for name, buffer in self._written:
            resolved[name] = buffer.array
        for name, buffer in self._read:
            resolved[name] = buffer.view
        return resolved

    def run_workgroup(self, ndrange: NDRange, fid: int) -> None:
        """Execute the body for one flattened work-group ID (device side)."""
        ctx = WorkGroupContext(
            group_id=ndrange.unflatten_group(fid),
            num_groups=ndrange.num_groups,
            local_size=ndrange.local_size,
            args=self._resolved_args(),
        )
        self.spec.body(ctx)

    def run_span(self, ndrange: NDRange, lo: int, hi: int) -> None:
        """Execute the bodies for flattened work-group IDs ``[lo, hi)``.

        Argument resolution happens once for the whole span instead of per
        work-group, and the context object is reused across groups.  A
        ``span_safe`` kernel on a 1-D NDRange runs the entire contiguous
        run as a single vectorized :class:`WorkGroupSpan` call.
        """
        if hi <= lo:
            return
        spec = self.spec
        resolved = self._resolved_args()
        if spec.span_safe and len(ndrange.num_groups) == 1:
            spec.body(WorkGroupSpan(
                group_id=(lo,),
                num_groups=ndrange.num_groups,
                local_size=ndrange.local_size,
                args=resolved,
                group_count=hi - lo,
            ))
            return
        body = spec.body
        ctx = WorkGroupContext(
            group_id=ndrange.unflatten_group(lo),
            num_groups=ndrange.num_groups,
            local_size=ndrange.local_size,
            args=resolved,
        )
        unflatten = ndrange.unflatten_group
        body(ctx)
        for fid in range(lo + 1, hi):
            ctx.group_id = unflatten(fid)
            body(ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name} v={self.spec.version}>"
