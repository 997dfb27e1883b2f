"""Deterministic fault injection on the devices of a platform.

Usage::

    from repro.faults import FaultKind, FaultSchedule, install_faults

    schedule = FaultSchedule.single(FaultKind.DEVICE_LOSS, at=5e-4, device="gpu")
    install_faults(runtime.platform, schedule)   # before running the app

See DESIGN.md ("Fault injection & graceful degradation") for the fault
taxonomy and the watchdog/failover protocol.
"""

from repro.faults.injector import FaultInjector, install_faults
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
    "install_faults",
]
