"""Per-device health state: stalls, loss, and injected transfer faults.

Every :class:`~repro.ocl.device.Device` carries a :class:`DeviceHealth`.
In a fault-free run it is inert (``ok`` is always True and every check is a
cheap attribute read).  The fault-injection subsystem (:mod:`repro.faults`)
mutates it from wrapper processes; the command layer consults it:

* a **stall** freezes the device's engines until a known simulated time —
  commands park at their next quantization boundary (wave start, transfer
  start) and resume when the stall clears;
* a **lost** device never comes back — commands on its queues raise
  :class:`DeviceLostError`, which the queue turns into a *cancelled*
  command event so nothing waits on it forever;
* an injected **transient transfer fault** makes the next enqueued H2D/D2H
  attempts fail mid-flight; :meth:`~repro.ocl.device.Device.transfer`
  retries with bounded exponential backoff before escalating to device
  loss.

``last_progress`` is a heartbeat the executor and queues refresh on every
completed wave/command; the runtime watchdog reads it to tell "slow" from
"stuck".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.sim.core import Engine, Event
from repro.sim.sync import Gate
from repro.sim.timebase import from_ticks

__all__ = ["DeviceLostError", "DeviceHealth"]


class DeviceLostError(RuntimeError):
    """A command targeted a device that has been lost (or was declared lost
    mid-command, e.g. after exhausting transfer retries)."""


class DeviceHealth:
    """Mutable health state of one device (see module docstring)."""

    def __init__(self, engine: Engine, device_name: str):
        self.engine = engine
        self.device_name = device_name
        #: permanently gone; never reset
        self.lost = False
        self.lost_reason = ""
        #: simulated time until which the device makes no progress
        self._stalled_until = 0.0
        #: fired when the device is declared lost (wakes stall waiters so
        #: they observe the escalation instead of sleeping out the stall)
        self._lost_gate = Gate(engine, name=f"lost:{device_name}")
        #: heartbeat: engine tick of the last completed wave/command.
        #: Kept in ticks so the watchdog's idle arithmetic is exact.
        self.last_progress_ticks = 0
        #: armed transient failures still pending, per DMA direction,
        #: oldest arming first: ``[failures left, event of its first]``
        self._armed: Dict[str, Deque[List]] = {"h2d": deque(), "d2h": deque()}
        #: bounded-retry policy for injected transfer failures, the one
        #: budget every transfer of the device obeys; the backoff before
        #: the first retry doubles per attempt
        self.max_transfer_retries = 4
        self.retry_backoff = 2e-5
        #: transfer attempts retried after an injected failure
        self.transfer_retries = 0

    # -- state queries -----------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when the device is executing normally right now."""
        return not self.lost and self.engine.now >= self._stalled_until

    @property
    def stalled(self) -> bool:
        return not self.lost and self.engine.now < self._stalled_until

    @property
    def last_progress(self) -> float:
        """Heartbeat as float seconds (tick-derived, read-only)."""
        return from_ticks(self.last_progress_ticks)

    def beat(self) -> None:
        """Record forward progress (called per completed wave/command)."""
        self.last_progress_ticks = self.engine.now_ticks

    # -- fault application (called by repro.faults / the watchdog) ---------
    def stall(self, duration: float) -> None:
        """Freeze the device for ``duration`` seconds from now."""
        if duration < 0:
            raise ValueError("stall duration must be >= 0")
        if self.lost:
            return
        self._stalled_until = max(
            self._stalled_until, self.engine.now + duration
        )

    def declare_lost(self, reason: str = "") -> None:
        """Mark the device permanently gone; idempotent."""
        if self.lost:
            return
        self.lost = True
        self.lost_reason = reason
        self._lost_gate.fire(reason)

    def inject_transfer_faults(self, direction: str, count: int = 1) -> Event:
        """Make the next ``count`` transfers in ``direction`` fail once each.

        Returns the event that fires when the first of them fails a
        transfer.  Armings in one direction are consumed in order, so it
        never fires while an earlier arming still has failures pending.
        """
        if direction not in self._armed:
            raise ValueError(f"unknown DMA direction {direction!r}")
        if count < 1:
            raise ValueError("count must be >= 1")
        struck = self.engine.event(name=f"{direction}-fault:{self.device_name}")
        self._armed[direction].append([count, struck])
        return struck

    # -- command-layer hooks -----------------------------------------------
    def take_transfer_fault(self, direction: str) -> bool:
        """Consume one pending injected failure; True if this attempt fails."""
        armed = self._armed.get(direction)
        if not armed:
            return False
        arming = armed[0]
        if not arming[1].triggered:
            arming[1].succeed()
        arming[0] -= 1
        if not arming[0]:
            armed.popleft()
        return True

    def pending_transfer_faults(self, direction: str) -> int:
        return sum(left for left, _struck in self._armed.get(direction, ()))

    def wait_ready(self):
        """Generator: wait out any stall.  Returns True if the device is
        (or becomes) lost while waiting, False once it is ready."""
        while True:
            if self.lost:
                return True
            remaining = self._stalled_until - self.engine.now
            if remaining <= 0:
                return False
            # Sleep until the stall clears — or until a loss declaration
            # (injected, or watchdog escalation) interrupts the wait.
            yield self.engine.any_of([
                self.engine.timeout(remaining),
                self._lost_gate.wait(),
            ])

    def barrier(self):
        """Generator: wait out any stall; raise :class:`DeviceLostError`
        if the device is (or becomes) lost."""
        if (yield from self.wait_ready()):
            raise DeviceLostError(
                f"{self.device_name} lost ({self.lost_reason})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("lost" if self.lost
                 else "stalled" if self.stalled else "ok")
        return f"<DeviceHealth {self.device_name} {state}>"
