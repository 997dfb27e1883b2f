"""Applies a :class:`FaultSchedule` to the devices of a live platform.

One wrapper process per scheduled fault sleeps until the fault's simulated
time and then mutates the target device's :class:`~repro.ocl.health.DeviceHealth`
(or, for link degradation, swaps the device's interconnect spec for a
bandwidth-scaled copy).  The injector needs only the platform (its engine
and device list), so it drives a runtime and a serve ``Server`` alike.
Kernel code and the command layer are untouched — they only ever observe
the health object at their existing quantization boundaries.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.ocl.platform import Platform

__all__ = ["FaultInjector", "install_faults"]


class FaultInjector:
    """Drives one schedule against one platform (install once, per run)."""

    def __init__(self, platform: Platform, schedule: FaultSchedule):
        self.platform = platform
        self.schedule = schedule
        #: specs that struck, in order — the one record of how many faults
        #: struck.  A stall, loss or link degrade strikes when applied; a
        #: transfer fault when one of its armed failures fails a transfer,
        #: and one that never does shows only as pending on its device
        self.applied: List[FaultSpec] = []
        self._installed = False

    def install(self) -> "FaultInjector":
        if self._installed:
            raise RuntimeError("fault schedule already installed")
        self._installed = True
        engine = self.platform.engine
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
        # "Tesla C2070"), then the shorthands "gpu" (device 0, the anchor)
        # and "cpu" (the runtime's CPU-path device).
        devices = self.platform.devices
        for device in devices:
            if device.name == spec.device:
                return device
        for device in devices:
            if device.name.startswith(spec.device + "x"):
                return device
        if spec.device == "gpu":
            return devices[0]
        if spec.device == "cpu":
            return devices[self.platform.cpu_path_index]
        raise ValueError(
            f"fault targets unknown device {spec.device!r}; this machine "
            f"has {[d.name for d in devices]} (or use the shorthands "
            f"'gpu' / 'cpu')"
        )

    def _inject(self, spec: FaultSpec):
        engine = self.platform.engine
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
            yield health.inject_transfer_faults(spec.direction, spec.count)
        elif spec.kind is FaultKind.LINK_DEGRADE:
            device.link = replace(
                device.link,
                name=f"{device.link.name}-degraded",
                bandwidth=device.link.bandwidth * spec.factor,
            )
        self.applied.append(spec)
        engine.trace("fault_injected", **spec.describe())


def install_faults(platform: Platform, schedule: FaultSchedule) -> FaultInjector:
    """Convenience: build and install an injector; returns it."""
    return FaultInjector(platform, schedule).install()
