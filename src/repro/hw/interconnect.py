"""Interconnect (PCIe / host link) timing model."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InterconnectSpec"]


@dataclass(frozen=True)
class InterconnectSpec:
    """A latency + bandwidth link between host memory and a device."""

    name: str
    #: per-transfer fixed latency, seconds
    latency: float
    #: sustained bandwidth, bytes/s
    bandwidth: float

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` across the link (one direction)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency + nbytes / self.bandwidth
