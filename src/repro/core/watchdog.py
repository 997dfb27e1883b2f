"""Per-command watchdog: escalates a silently stalled device to *lost*.

FluidiCL's host blocks on device events (the GPU kernel event inside
``enqueue_nd_range_kernel``, read events inside ``enqueue_read_buffer``).
With a perfect device that is fine; with a stalled one the host would wait
forever.  A :class:`KernelWatchdog` rides along with one blocking wait: it
samples the device's heartbeat (:attr:`DeviceHealth.last_progress`) and, if
the device makes no progress for ``timeout`` simulated seconds while the
awaited event is still pending, declares the device lost.  Loss propagates
through the command layer as cancelled events, which unblocks the host and
triggers the runtime's failover path.

A tripped watchdog is indistinguishable (by design) from an injected
``device-loss`` fault: both funnel into ``DeviceHealth.declare_lost``.
"""

from __future__ import annotations

from repro.sim.timebase import from_ticks

__all__ = ["KernelWatchdog"]


class KernelWatchdog:
    """Monitors one device while one awaited event is outstanding."""

    def __init__(self, runtime, device, awaited, timeout: float,
                 label: str = ""):
        self.runtime = runtime
        self.device = device
        self.awaited = awaited
        self.timeout = timeout
        self.label = label
        #: True once this watchdog declared the device lost
        self.tripped = False
        self.process = runtime.engine.process(
            self._run(), name=f"watchdog:{label or device.name}"
        )

    def _run(self):
        # Idle time is measured in integer engine ticks, so the re-arm
        # timeout of ``timeout_ticks - idle_ticks`` wakes this process at
        # *exactly* the deadline instant and ``idle >= timeout`` trips on
        # equality — no float-ULP epsilon needed (the pre-tick engine
        # required an ``idle >= timeout * 0.999`` workaround here because
        # the wakeup could land one ULP short and re-arm forever).
        engine = self.runtime.engine
        health = self.device.health
        timeout_ticks = engine.delay_ticks(self.timeout)
        armed_at = engine.now_ticks
        while not self.awaited.triggered:
            if health.lost:
                return
            idle_ticks = engine.now_ticks - max(
                health.last_progress_ticks, armed_at
            )
            if idle_ticks >= timeout_ticks:
                self.tripped = True
                idle = from_ticks(idle_ticks)
                engine.trace(
                    "device_degraded", device=self.device.name,
                    idle=idle, timeout=self.timeout, label=self.label,
                )
                self.runtime.stats.extra["watchdog_trips"] += 1
                health.declare_lost(
                    f"watchdog: no progress for {idle:.3g}s "
                    f"(limit {self.timeout:.3g}s)"
                )
                return
            yield engine.any_of([
                self.awaited,
                engine.timeout_ticks(timeout_ticks - idle_ticks),
            ])
