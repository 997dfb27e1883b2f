"""The kernel description language.

A kernel is a function executed once per *work-group* (not per work-item):
the body receives a :class:`WorkGroupContext` giving it the group's N-D ID,
the NDRange geometry and the bound arguments, and it updates output arrays
in place with NumPy operations.  Executing at work-group granularity matches
the paper's unit of scheduling and keeps simulation costs reasonable while
still moving real data through every runtime path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.analysis.diagnostics import KernelDeclarationError, rule
from repro.hw.cost import UNROLLED_CHECK_PENALTY, WorkGroupCost

__all__ = [
    "Intent",
    "ArgSpec",
    "buffer_arg",
    "scalar_arg",
    "WorkGroupContext",
    "WorkGroupSpan",
    "KernelSpec",
    "KernelVariant",
]


class Intent(str, enum.Enum):
    """Dataflow direction of a kernel argument.

    FluidiCL identifies ``out``/``inout`` buffers "using simple compiler
    analysis at the whole variable level" (paper section 4.1); here the
    intent is declared on the argument spec, which is what such an analysis
    would produce.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def is_written(self) -> bool:
        return self in (Intent.OUT, Intent.INOUT)

    @property
    def is_read(self) -> bool:
        return self in (Intent.IN, Intent.INOUT)


@dataclass(frozen=True)
class ArgSpec:
    """One kernel argument: a named buffer (with intent) or a scalar."""

    name: str
    intent: Intent = Intent.IN
    is_buffer: bool = True

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise KernelDeclarationError(rule("FK003").finding(
                f"argument name {self.name!r} is not a valid identifier",
                arg=str(self.name),
                hint="kernel bodies access arguments as ctx[<name>], so the "
                     "name must be a plain identifier string",
            ))
        if not self.is_buffer and self.intent is not Intent.IN:
            raise KernelDeclarationError(rule("FK002").finding(
                f"scalar argument {self.name!r} must be intent=in: scalars "
                f"are passed by value to every work-group and cannot carry "
                f"results back",
                arg=self.name,
                hint=f"declare buffer_arg({self.name!r}, "
                     f"Intent.{self.intent.name}) instead",
            ))


def buffer_arg(name: str, intent: Intent = Intent.IN) -> ArgSpec:
    return ArgSpec(name, intent, is_buffer=True)


def scalar_arg(name: str) -> ArgSpec:
    return ArgSpec(name, Intent.IN, is_buffer=False)


class WorkGroupContext:
    """Everything a kernel body sees while executing one work-group."""

    __slots__ = ("group_id", "num_groups", "local_size", "args")

    def __init__(
        self,
        group_id: Tuple[int, ...],
        num_groups: Tuple[int, ...],
        local_size: Tuple[int, ...],
        args: Mapping[str, Any],
    ):
        self.group_id = group_id
        self.num_groups = num_groups
        self.local_size = local_size
        self.args = args

    def __getitem__(self, name: str) -> Any:
        return self.args[name]

    def item_range(self, dim: int = 0) -> Tuple[int, int]:
        """Global work-item index range covered by this group along ``dim``."""
        start = self.group_id[dim] * self.local_size[dim]
        return start, start + self.local_size[dim]

    def rows(self) -> slice:
        """Convenience: the slice of dimension 0 items owned by this group."""
        lo, hi = self.item_range(0)
        return slice(lo, hi)

    def cols(self) -> slice:
        """Convenience: the slice of dimension 1 items owned by this group."""
        lo, hi = self.item_range(1)
        return slice(lo, hi)


class WorkGroupSpan(WorkGroupContext):
    """A contiguous run of dimension-0 work-groups executed as one call.

    For a :class:`KernelSpec` declared ``span_safe`` on a 1-D NDRange the
    executor hands the body one span covering ``group_count`` consecutive
    groups instead of ``group_count`` separate contexts: ``item_range(0)``
    (and therefore ``rows()``) widens to the whole run, so a row-local
    NumPy body computes the identical update in one vectorized call.
    """

    __slots__ = ("group_count",)

    def __init__(
        self,
        group_id: Tuple[int, ...],
        num_groups: Tuple[int, ...],
        local_size: Tuple[int, ...],
        args: Mapping[str, Any],
        group_count: int = 1,
    ):
        super().__init__(group_id, num_groups, local_size, args)
        self.group_count = group_count

    def item_range(self, dim: int = 0) -> Tuple[int, int]:
        start = self.group_id[dim] * self.local_size[dim]
        width = self.local_size[dim]
        if dim == 0:
            width *= self.group_count
        return start, start + width


BodyFn = Callable[[WorkGroupContext], None]


@dataclass(frozen=True)
class KernelSpec:
    """A device-agnostic kernel: signature + per-work-group body + cost."""

    name: str
    args: Tuple[ArgSpec, ...]
    body: BodyFn
    cost: WorkGroupCost
    #: free-form tag distinguishing alternate implementations of the same
    #: computation (paper section 6.6 online profiling), e.g. "baseline" /
    #: "loop-interchanged"
    version: str = "baseline"
    #: the body is *row-local along dimension 0*: it touches only the item
    #: rows of its own group (via ``ctx.rows()`` / ``ctx.item_range(0)``),
    #: so on a 1-D NDRange a contiguous run of groups may be executed as
    #: one :class:`WorkGroupSpan` — one vectorized NumPy call instead of
    #: one Python call per group, with the identical data update
    span_safe: bool = False
    #: optional per-work-group cost weights, indexed by *flattened* group
    #: ID (length must equal the launch NDRange's total_groups).  ``None``
    #: — the dense-polybench regime — keeps every group at ``cost``; a
    #: tuple of positive multipliers models irregular workloads (CSR row
    #: skew, data-dependent frontiers) where per-group cost varies by
    #: orders of magnitude: a wave's simulated duration follows its most
    #: expensive resident group (see ``repro.ocl.executor``)
    group_weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        names = [a.name for a in self.args]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise KernelDeclarationError(rule("FK001").finding(
                f"duplicate argument names in kernel {self.name!r}: "
                f"{', '.join(repr(n) for n in duplicates)}",
                kernel=self.name, arg=duplicates[0],
                hint="every ArgSpec in args must have a distinct name",
            ))
        if self.group_weights is not None:
            if len(self.group_weights) == 0:
                raise ValueError(
                    f"kernel {self.name!r}: group_weights must be a "
                    f"non-empty tuple or None"
                )
            if any(not (0.0 < w < float("inf")) for w in self.group_weights):
                raise ValueError(
                    f"kernel {self.name!r}: group_weights must all be "
                    f"positive finite multipliers"
                )

    @property
    def buffer_args(self) -> Tuple[ArgSpec, ...]:
        return tuple(a for a in self.args if a.is_buffer)

    @property
    def out_args(self) -> Tuple[ArgSpec, ...]:
        """Arguments FluidiCL must merge / transfer (out and inout)."""
        return tuple(a for a in self.args if a.is_buffer and a.intent.is_written)

    @property
    def in_args(self) -> Tuple[ArgSpec, ...]:
        return tuple(a for a in self.args if a.is_buffer and a.intent.is_read)

    def arg(self, name: str) -> ArgSpec:
        for spec in self.args:
            if spec.name == name:
                return spec
        raise KeyError(f"kernel {self.name!r} has no argument {name!r}")

    def bind_check(self, bound: Mapping[str, Any]) -> None:
        """Validate that ``bound`` supplies exactly the declared arguments."""
        expected = {a.name for a in self.args}
        got = set(bound)
        if expected != got:
            missing = expected - got
            extra = got - expected
            raise TypeError(
                f"kernel {self.name!r} argument mismatch: "
                f"missing={sorted(missing)} unexpected={sorted(extra)}"
            )

    def with_version(self, version: str, body: BodyFn,
                     cost: Optional[WorkGroupCost] = None) -> "KernelSpec":
        """Derive an alternate implementation (same signature and outputs)."""
        return replace(self, version=version, body=body,
                       cost=cost if cost is not None else self.cost)


@dataclass(frozen=True)
class KernelVariant:
    """A kernel after device-specific source transformation.

    The flags mirror the paper's rewrites; the executor interprets them:

    * ``abort_checks`` — first work-item consults the CPU status at
      work-group start and skips completed groups (GPU kernels, Fig. 8).
    * ``abort_in_loops`` — the check is replicated inside the innermost
      loops so a running work-group can terminate early (section 6.4).
    * ``unrolled`` — loop unrolling was re-applied around the inner checks
      (section 6.5); without it the inner checks inhibit compiler unrolling
      and inflate per-work-group cost by ``cost.no_unroll_penalty``.
    * ``wg_split`` — one work-group may be split across all CPU compute
      units when the allocation is smaller than the device (section 6.3).
    """

    spec: KernelSpec
    abort_checks: bool = False
    abort_in_loops: bool = False
    unrolled: bool = False
    wg_split: bool = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def cost(self) -> WorkGroupCost:
        return self.spec.cost

    @property
    def time_multiplier(self) -> float:
        """Per-work-group cost multiplier induced by the transformations."""
        if not self.abort_in_loops:
            return 1.0
        if self.unrolled:
            return UNROLLED_CHECK_PENALTY
        return self.spec.cost.no_unroll_penalty

    @property
    def abort_granularity(self) -> int:
        """Number of abort-check opportunities within one work-group."""
        if self.abort_in_loops:
            return max(1, self.spec.cost.loop_iters)
        return 1
