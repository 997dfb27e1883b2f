"""A live device: spec + memory + execution/DMA engines."""

from __future__ import annotations

from typing import Generator, Tuple

import numpy as np

from repro.hw.interconnect import InterconnectSpec
from repro.hw.memory import DeviceMemory
from repro.hw.specs import DeviceKind, DeviceSpec
from repro.ocl.buffer import Buffer
from repro.ocl.enums import MemFlag
from repro.ocl.health import DeviceHealth, DeviceLostError
from repro.sim.core import Engine
from repro.sim.resources import Resource

__all__ = ["Device"]


class Device:
    """One OpenCL device on the simulated node.

    Three independent engines model what the hardware overlaps:

    * ``compute`` — runs kernel commands (one at a time, as on Fermi);
    * ``h2d`` / ``d2h`` — the two DMA directions, so transfers in opposite
      directions and kernel execution can all proceed concurrently.  This
      is what FluidiCL's extra ``hd``/``dh`` command queues exploit
      (paper sections 5.4/5.5).
    """

    def __init__(self, engine: Engine, spec: DeviceSpec, link: InterconnectSpec):
        self.engine = engine
        self.spec = spec
        self.link = link
        self.memory = DeviceMemory(spec.mem_capacity, name=spec.name)
        self.compute = Resource(engine, capacity=1, name=f"{spec.name}:compute")
        self.h2d = Resource(engine, capacity=1, name=f"{spec.name}:h2d")
        self.d2h = Resource(engine, capacity=1, name=f"{spec.name}:d2h")
        #: fault-injection / degradation state (inert unless faults installed)
        self.health = DeviceHealth(engine, spec.name)
        #: running counters for reporting
        self.stats = {
            "kernels_launched": 0,
            "workgroups_executed": 0,
            "workgroups_aborted": 0,
            "bytes_h2d": 0,
            "bytes_d2h": 0,
            "busy_compute_time": 0.0,
        }

    @property
    def kind(self) -> DeviceKind:
        return self.spec.kind

    @property
    def name(self) -> str:
        return self.spec.name

    def create_buffer(self, shape: Tuple[int, ...], dtype,
                      flags: MemFlag = MemFlag.READ_WRITE,
                      name: str = "") -> Buffer:
        return Buffer(self, shape, np.dtype(dtype), flags=flags, name=name)

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` between host and this device."""
        return self.link.transfer_time(nbytes)

    def transfer(self, direction: str, nbytes: int, track: str,
                 describe: dict) -> Generator:
        """Occupy the ``direction`` DMA engine for one ``nbytes`` transfer.

        The one fault-aware transfer, for runtime commands and serve DMA
        stages alike: a stall parks it at its start, each injected
        transient failure costs half a transfer (where the error surfaces)
        and is retried after exponential backoff, and a failure past
        ``health.max_transfer_retries`` retries declares the device lost
        (:class:`DeviceLostError`).  Retries are traced as ``fault_retry``
        on ``track`` with ``describe``'s fields.  The caller moves the data
        *after* this returns, so a retried transfer never exposes
        partially-moved data.
        """
        engine = self.engine
        health = self.health
        if not health.ok:
            yield from health.barrier()
        resource = getattr(self, direction)
        request = resource.request()
        yield request
        try:
            attempt = 0
            while True:
                if not health.ok:
                    yield from health.barrier()
                if health.take_transfer_fault(direction):
                    attempt += 1
                    # The failure surfaces partway through the transfer;
                    # that bus time is wasted either way.
                    yield engine.timeout(self.transfer_time(nbytes) / 2.0)
                    if attempt > health.max_transfer_retries:
                        health.declare_lost(
                            f"{direction} transfer failed "
                            f"{attempt} times (retries exhausted)"
                        )
                        raise DeviceLostError(
                            f"{self.name} lost ({health.lost_reason})"
                        )
                    health.transfer_retries += 1
                    backoff = health.retry_backoff * (2 ** (attempt - 1))
                    engine.trace(
                        "fault_retry", kind="transfer", queue=track,
                        device=self.name, direction=direction,
                        attempt=attempt, backoff=backoff, **describe,
                    )
                    yield engine.timeout(backoff)
                    continue
                yield engine.timeout(self.transfer_time(nbytes))
                health.beat()
                self.stats[f"bytes_{direction}"] += nbytes
                return
        finally:
            resource.release(request)

    def device_copy_time(self, nbytes: float) -> float:
        """Seconds for an on-device buffer-to-buffer copy (read + write)."""
        return 2.0 * nbytes / self.spec.mem_bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Device {self.spec.name} ({self.spec.kind})>"
