"""Applies a :class:`FaultSchedule` to a live runtime.

One wrapper process per scheduled fault sleeps until the fault's simulated
time and then mutates the target device's :class:`~repro.ocl.health.DeviceHealth`
(or, for link degradation, swaps the device's interconnect spec for a
bandwidth-scaled copy).  Kernel code and the command layer are untouched —
they only ever observe the health object at their existing quantization
boundaries.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec

__all__ = ["FaultInjector", "install_faults"]


class FaultInjector:
    """Drives one schedule against one runtime (install once, per run)."""

    def __init__(self, runtime, schedule: FaultSchedule):
        self.runtime = runtime
        self.schedule = schedule
        #: specs already applied, in application order
        self.applied: List[FaultSpec] = []
        self._installed = False

    def install(self) -> "FaultInjector":
        if self._installed:
            raise RuntimeError("fault schedule already installed")
        self._installed = True
        engine = self.runtime.engine
        for idx, spec in enumerate(self.schedule):
            # Resolve the target eagerly: an unknown device name should
            # fail at install time, not mid-simulation inside a process.
            self._device(spec)
            engine.process(
                self._inject(spec),
                name=f"fault-{idx}-{spec.kind.value}@{spec.device}",
            )
        return self

    def _device(self, spec: FaultSpec):
        # Exact device name first (N-device sets), then the name modulo a
        # what-if scaling suffix ("Tesla C2070x0.5" still answers to
        # "Tesla C2070"), then the classic kind shorthands "gpu" (the
        # anchor) / "cpu".
        devices = getattr(self.runtime.platform, "devices", ())
        for device in devices:
            if device.name == spec.device:
                return device
        for device in devices:
            if device.name.startswith(spec.device + "x"):
                return device
        if spec.device == "gpu":
            return self.runtime.gpu_device
        if spec.device == "cpu":
            return self.runtime.cpu_device
        names = [d.name for d in getattr(self.runtime.platform, "devices", ())]
        raise ValueError(
            f"fault targets unknown device {spec.device!r}; this machine "
            f"has {names} (or use the shorthands 'gpu' / 'cpu')"
        )

    def _inject(self, spec: FaultSpec):
        engine = self.runtime.engine
        delay = spec.at - engine.now
        if delay > 0:
            yield engine.timeout(delay)
        device = self._device(spec)
        health = device.health
        if spec.kind is FaultKind.DEVICE_STALL:
            health.stall(spec.duration)
        elif spec.kind is FaultKind.DEVICE_LOSS:
            health.declare_lost("injected device loss")
        elif spec.kind is FaultKind.TRANSFER_FAULT:
            health.inject_transfer_faults(spec.direction, spec.count)
        elif spec.kind is FaultKind.LINK_DEGRADE:
            device.link = replace(
                device.link,
                name=f"{device.link.name}-degraded",
                bandwidth=device.link.bandwidth * spec.factor,
            )
        self.applied.append(spec)
        self.runtime.stats.extra["faults_injected"] += 1
        engine.trace("fault_injected", **spec.describe())


def install_faults(runtime, schedule: FaultSchedule) -> FaultInjector:
    """Convenience: build and install an injector; returns it."""
    return FaultInjector(runtime, schedule).install()
