"""Per-kernel execution records produced by the FluidiCL runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["KernelRecord"]


@dataclass
class KernelRecord:
    """What happened during one cooperative kernel execution."""

    kernel_id: int
    name: str
    total_groups: int
    #: work-groups whose bodies the GPU executed
    gpu_groups: int = 0
    #: work-groups credited to the CPU (status + data arrived in time)
    cpu_groups: int = 0
    #: chunk sizes of the completed CPU subkernels, in completion order;
    #: their sum is the work-groups the CPU executed (including ones whose
    #: results were ultimately ignored because the GPU got there first)
    chunks: List[int] = field(default_factory=list)
    #: groups launched beyond the useful windows by covering slices (§5.2)
    surplus_groups: int = 0
    #: how the kernel committed: ``gpu-only`` (the anchor's copy as is),
    #: ``merged`` (worker results merged into the anchor's copy),
    #: ``cpu-complete`` (a worker front finished the whole NDRange first,
    #: §4.2) or ``failover`` (the anchor was lost and a survivor completed
    #: the range)
    path: str = "gpu-only"
    #: kernel version the CPU-path front ran, as picked by online profiling
    version_used: Optional[str] = None
    start_time: float = 0.0
    end_time: float = 0.0
    #: (start, end) of the GPU-side kernel command
    gpu_span: Tuple[float, float] = (0.0, 0.0)
    #: groups *executed* per worker front, by device name
    front_groups: Dict[str, int] = field(default_factory=dict)

    @property
    def subkernels(self) -> int:
        """Completed CPU subkernels."""
        return len(self.chunks)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def cpu_share(self) -> float:
        """Fraction of the NDRange credited to the CPU."""
        if self.total_groups == 0:
            return 0.0
        return self.cpu_groups / self.total_groups

    @property
    def wasted_cpu_groups(self) -> int:
        """CPU work that arrived too late to be counted."""
        return max(0, sum(self.chunks) - self.cpu_groups)

    def summary(self) -> str:
        return (
            f"kernel {self.kernel_id} {self.name!r}: {self.total_groups} groups, "
            f"gpu={self.gpu_groups} cpu={self.cpu_groups} "
            f"({self.cpu_share:.0%} cpu), {self.subkernels} subkernels, "
            f"{self.path}, "
            f"{self.duration * 1e3:.2f} ms"
        )
