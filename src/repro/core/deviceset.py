"""Device sets: N cooperative fronts over one flattened group range.

The paper's protocol (§4, Fig. 7) runs two fronts toward each other: the
GPU ascends from flattened group ID 0 while the CPU scheduler peels
subkernels off the top.  A :class:`DeviceSet` generalizes this to N
devices with the same meeting rule:

* Front 0 is the **anchor**: it executes the whole NDRange from ID 0
  upward with the fluidic abort check, exactly like the classic GPU.
* Fronts 1..N-1 are **workers**: each runs its own scheduler thread with
  a private :class:`~repro.core.chunking.AdaptiveChunker`, claiming
  contiguous windows off the shared top frontier of the
  :class:`FrontLedger`.

The ledger is the single source of truth for span ownership: every
flattened ID is claimed by at most one worker, claims descend
contiguously from the top, and the *committed frontier* (the lowest start
of the contiguous landed suffix) is what worker fronts report to the
anchor's status board.  With one worker the ledger degenerates to the
classic single CPU frontier, event for event.

A worker that finds nothing left to claim re-runs a *late window*: the
top-most window of another front that has not landed yet.  Whichever
shipment lands first covers the window and is credited with it, so one
slow (or lost) front no longer freezes the frontier of the faster ones.

On front loss the ledger enters failover: a surviving leader front drains
the unclaimed floor and then *redo spans* — the windows claimed by every
other front, whose results live in copies the leader cannot merge from —
so the leader's copy ends up holding the complete range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.offsets import coalesce_windows
from repro.ocl.device import Device
from repro.ocl.queue import CommandQueue

__all__ = ["DeviceFront", "DeviceSet", "FrontLedger"]


@dataclass
class DeviceFront:
    """One device's seat in the set: its role, compute and I/O queues."""

    index: int
    device: Device
    #: the in-order queue every writer of this front's copies is enqueued
    #: on: host writes, refreshes and, for a worker, read-back deliveries
    #: and subkernels (the anchor's is the application queue)
    queue: Optional[CommandQueue] = None
    #: the queue host reads of this front's copies travel on
    io_queue: Optional[CommandQueue] = None

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def is_anchor(self) -> bool:
        return self.index == 0

    @property
    def lost(self) -> bool:
        return self.device.health.lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "anchor" if self.is_anchor else "worker"
        return f"<DeviceFront {self.index} {role} {self.device.name!r}>"


class DeviceSet:
    """Ordered fronts over the devices of one machine."""

    def __init__(self, devices: List[Device]):
        if not devices:
            raise ValueError("a device set needs at least one device")
        self.fronts: List[DeviceFront] = [
            DeviceFront(index=i, device=d) for i, d in enumerate(devices)
        ]

    @property
    def anchor(self) -> DeviceFront:
        return self.fronts[0]

    @property
    def workers(self) -> List[DeviceFront]:
        return self.fronts[1:]

    def __len__(self) -> int:
        return len(self.fronts)

    def __iter__(self):
        return iter(self.fronts)

    def survivors(self) -> List[DeviceFront]:
        return [f for f in self.fronts if not f.lost]

    def front_by_name(self, name: str) -> DeviceFront:
        for front in self.fronts:
            if front.device.name == name:
                return front
        raise LookupError(f"no front for device {name!r}")


@dataclass
class _Window:
    """One claimed window of flattened group IDs (``[start, end)``)."""

    start: int
    end: int
    front: int
    redo: bool = False
    #: front whose shipment landed this window first (None until then)
    landed_by: Optional[int] = None
    #: for a late-window re-run, the index of the window it re-runs
    rerun_of: Optional[int] = None

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class FrontLedger:
    """Shared claim ledger for the worker fronts of one kernel.

    Workers claim windows off the top frontier (``claim_floor``) at launch
    time, so claims are globally contiguous and descending even with
    several workers interleaving.  A window *lands* once its results have
    shipped to the anchor; the committed frontier only advances over the
    contiguous landed suffix, which is exactly the §5.3 guarantee the
    status board needs (data always precedes status).

    Late-window re-runs (:meth:`claim_late`) are not part of that
    partition: each one names the claimed window it re-runs, and its
    landing lands that window if no other shipment did first.
    """

    total: int
    claim_floor: int = field(init=False)
    windows: List[_Window] = field(init=False, default_factory=list)
    #: window indices per front, in that front's claim order
    by_front: Dict[int, List[int]] = field(init=False, default_factory=dict)
    redo_spans: List[Tuple[int, int]] = field(init=False, default_factory=list)
    leader: Optional[int] = field(init=False, default=None)
    _landed_prefix: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.claim_floor = self.total

    # -- claiming -------------------------------------------------------------
    def claim(self, front: int, chunk: int) -> Optional[_Window]:
        """Claim up to ``chunk`` groups for ``front`` off the top frontier.

        Past failover the leader claims redo spans instead (top-first, so
        its own descent stays as contiguous as possible).  Returns ``None``
        when nothing is left to claim.
        """
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        if self.claim_floor > 0:
            size = min(chunk, self.claim_floor)
            window = _Window(self.claim_floor - size, self.claim_floor, front)
            self.claim_floor = window.start
        elif self.redo_spans:
            start, end = self.redo_spans[-1]
            size = min(chunk, end - start)
            window = _Window(end - size, end, front, redo=True)
            if size == end - start:
                self.redo_spans.pop()
            else:
                self.redo_spans[-1] = (start, end - size)
        else:
            return None
        return self._add(window)

    def claim_late(self, front: int) -> Optional[_Window]:
        """A late window for ``front`` to re-run whole, or ``None``.

        Only once nothing is left to claim and outside failover: the
        top-most window another front (lost or not) claimed that has not
        landed, and that ``front`` has not re-run already.  Several fronts
        may re-run the same window; the first landing covers it.
        """
        if self.claim_floor > 0 or self.redo_spans or self.leader is not None:
            return None
        rerun = {self.windows[i].rerun_of for i in self.by_front.get(front, ())}
        for index, late in enumerate(self.windows):
            if (late.rerun_of is None and late.front != front
                    and late.landed_by is None and index not in rerun):
                return self._add(_Window(late.start, late.end, front,
                                         redo=True, rerun_of=index))
        return None

    def _add(self, window: _Window) -> _Window:
        self.windows.append(window)
        self.by_front.setdefault(window.front, []).append(len(self.windows) - 1)
        return window

    def remaining_for(self, front: int) -> int:
        """Groups ``front`` may still claim (0 once another leader owns all)."""
        if self.leader is not None and front != self.leader:
            return 0
        return self.claim_floor + sum(e - s for s, e in self.redo_spans)

    # -- landing / committed frontier -----------------------------------------
    def shipment_mark(self, front: int) -> int:
        """Number of windows ``front`` has claimed so far (capture at ship)."""
        return len(self.by_front.get(front, ()))

    def mark_landed(self, front: int, upto: int) -> None:
        """The first ``upto`` windows of ``front`` have reached the anchor.

        A re-run lands the window it re-runs.  The first landing of a
        window credits its front; a later copy changes nothing.
        """
        for index in self.by_front.get(front, ())[:upto]:
            window = self._claimed(self.windows[index])
            if window.landed_by is None:
                window.landed_by = front
        # Re-runs are never marked themselves and follow every claimed
        # window, so the prefix stops at the first one.
        while (self._landed_prefix < len(self.windows)
               and self.windows[self._landed_prefix].landed_by is not None):
            self._landed_prefix += 1

    def covered(self, window: _Window) -> bool:
        """Whether ``window`` (or the window it re-runs) has landed."""
        return self._claimed(window).landed_by is not None

    def _claimed(self, window: _Window) -> _Window:
        """The claimed window ``window`` stands for: itself, or the one
        it re-runs."""
        return window if window.rerun_of is None else self.windows[window.rerun_of]

    def committed_frontier(self) -> int:
        """Lowest start of the contiguous landed suffix (== classic frontier).

        Because claims descend contiguously from ``total``, the landed
        prefix of the claim-ordered window list is a suffix of the group
        range; its lowest start is the frontier value safe to publish.
        """
        if self._landed_prefix == 0:
            return self.total
        return self.windows[self._landed_prefix - 1].start

    # -- failover -------------------------------------------------------------
    def enter_failover(self, leader: int) -> None:
        """``leader`` takes over: everything not in its own copy is redone.

        Redo spans cover the windows claimed by every *other* front —
        their results live in those fronts' device copies, which the
        leader has no merge path to once the anchor is gone.
        """
        self.leader = leader
        foreign = [
            (w.start, w.end) for w in self.windows
            if w.front != leader and w.rerun_of is None
        ]
        # Spans are drained top-first, so store them ascending and pop().
        self.redo_spans = coalesce_windows(foreign)

    # -- commit support -------------------------------------------------------
    def _credit(self) -> List[Tuple[_Window, int]]:
        """Each claimed window with the front credited for it: the front
        whose shipment landed it, else (not landed yet) its claimant."""
        return [
            (w, w.front if w.landed_by is None else w.landed_by)
            for w in self.windows if w.rerun_of is None
        ]

    def credited_above(self, frontier: int, top: int) -> List[int]:
        """Fronts credited with a window at or above ``frontier`` that
        reaches above ``top``, ascending.

        These are the fronts whose landing buffers a commit must merge
        when the anchor executed every group below ``top``.  A window
        below the final board frontier was never accepted (its status
        arrived too late) and merging it would overwrite anchor results
        with stale worker data; a window at or below ``top`` holds only
        groups the anchor computed itself.
        """
        return sorted({
            front for w, front in self._credit()
            if w.start >= frontier and w.end > top
        })

    def groups_for(self, front: int) -> int:
        """Total groups claimed by ``front`` (redo windows included, late
        window re-runs not: they re-run another front's claim)."""
        return sum(
            self.windows[i].size for i in self.by_front.get(front, ())
            if self.windows[i].rerun_of is None
        )

    def sole_contributor(self) -> Optional[int]:
        """The one front credited with the *entire* range, if any.

        Only meaningful when the whole range was claimed
        (``claim_floor == 0``): the classic "CPU finished everything"
        commit is only sound if a single front's copy holds every group.
        A front that landed a window holds it, whoever claimed it, so a
        re-run that loses the race never turns this commit into a merge.
        """
        if self.claim_floor != 0 or self.redo_spans:
            return None
        owners = {front for _w, front in self._credit()}
        if len(owners) == 1:
            return owners.pop()
        return None
