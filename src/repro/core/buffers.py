"""Device-set buffers with version and location tracking (paper §5.3, §6.2).

A :class:`FluidiBuffer` owns one vendor buffer per device of the set.
Versions are FluidiCL kernel IDs: ``latest`` is the ID of the last committed
writer, and ``versions[i]`` records which committed state device copy ``i``
reflects.  A device copy that contains *partial* results (e.g. a worker
array mid-kernel, or the anchor array after an ignored execution) is marked
:data:`DIRTY` so nothing consumes it until refreshed.

Copy 0 always belongs to the *anchor* front (the GPU in the paper's
CPU+GPU pair); the remaining copies belong to worker fronts.  Every
accessor takes a copy index, whatever the number of devices.

An anchor commit's §5.6 read-back to the worker copies is one
:class:`ReadBack` record bound to the committed version, so a later host
write or commit supersedes it with no extra bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ocl.buffer import Buffer
from repro.ocl.enums import MemFlag
from repro.sim.core import Engine
from repro.sim.sync import Gate

__all__ = ["DIRTY", "FluidiBuffer", "ReadBack"]

#: version marker for a device copy holding partial/ignored results
DIRTY = -1


@dataclass
class ReadBack:
    """The §5.6 read-back of one anchor commit to the worker copies.

    ``waiting`` holds the worker copies it has not reached yet.  ``read``
    is the one read of the anchor copy that brings ``version`` down: a
    covering host read (§6.2), the host's settle read or the dh thread's
    own D2H.  ``data`` is that read's array until the dh thread takes it.
    """

    version: int
    waiting: Set[int]
    read: Any = None
    data: Optional[np.ndarray] = None


class FluidiBuffer:
    """One logical application buffer, physically mirrored on every device."""

    def __init__(self, engine: Engine, name: str, copies: Sequence[Buffer],
                 flags: MemFlag = MemFlag.READ_WRITE):
        copies = list(copies)
        if not copies:
            raise ValueError("a FluidiBuffer needs at least one copy")
        first = copies[0]
        for other in copies[1:]:
            if other.shape != first.shape or other.dtype != first.dtype:
                raise ValueError("device copies must agree on shape and dtype")
        self.name = name
        #: device copies in device-set order; copy 0 is the anchor front's
        self.copies: List[Buffer] = copies
        self.flags = flags
        #: kernel ID of the last committed writer
        self.latest = 0
        self.versions: List[int] = [0] * len(copies)
        #: fired (with the new version) whenever a worker copy is refreshed;
        #: scheduler threads wait on these before consuming inputs (§5.3).
        #: The anchor gate (index 0) exists for uniformity but never fires.
        self.gates: List[Gate] = [
            Gate(engine, name=f"ver{i}:{name}") for i in range(len(copies))
        ]
        #: the read-back of the last anchor commit; it is pending only
        #: while its version is still ``latest``
        self.readback: Optional[ReadBack] = None
        #: the command that last wrote each copy.  Every writer of copy
        #: ``i`` (host writes, refreshes, read-back deliveries, subkernels,
        #: merges) is enqueued on that copy's one in-order queue, so the
        #: last one enqueued is the last to finish.  Reads of a copy travel
        #: on other queues and wait for it first (§5.3).
        self.last_write: List[object] = [None] * len(copies)

    # -- per-copy access ------------------------------------------------------
    def version_of(self, index: int) -> int:
        return self.versions[index]

    def current(self, index: int) -> bool:
        return self.versions[index] == self.latest

    def gate(self, index: int) -> Gate:
        return self.gates[index]

    def dh_pending_for(self, index: int) -> bool:
        """Copy ``index`` still waits for the read-back of ``latest``."""
        readback = self.readback
        return (readback is not None and readback.version == self.latest
                and index in readback.waiting)

    def record_write(self, index: int, event) -> None:
        """``event`` is now the last writer enqueued for copy ``index``."""
        self.last_write[index] = event

    def pending_write(self, index: int):
        """Completion of copy ``index``'s last writer, if still in flight."""
        event = self.last_write[index]
        if event is None or event.is_complete:
            return None
        return event.done

    # -- geometry -------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.copies[0].shape

    @property
    def dtype(self) -> np.dtype:
        return self.copies[0].dtype

    @property
    def nbytes(self) -> int:
        return self.copies[0].nbytes

    # -- version transitions --------------------------------------------------
    def expect_write(self, kernel_id: int) -> None:
        """Mark that ``kernel_id`` is about to (partially) write this buffer."""
        if kernel_id <= self.latest:
            raise ValueError(
                f"kernel id {kernel_id} not newer than committed {self.latest}"
            )
        # Every copy becomes unreliable until the kernel commits.
        for i in range(len(self.versions)):
            self.versions[i] = DIRTY

    def commit_host_write(self, version: int,
                          mask: Optional[Sequence[bool]] = None) -> None:
        """Fresh host data was written (``clEnqueueWriteBuffer``).

        Normally every device copy receives it; a copy on a lost device is
        skipped by the runtime (``False`` in the per-copy ``mask``) and
        marked DIRTY so nothing serves it.
        """
        if mask is None:
            mask = [True] * len(self.copies)
        self.latest = version
        for i, ok in enumerate(mask):
            self.versions[i] = version if ok else DIRTY
            if ok and i != 0:
                self.gates[i].fire(version)

    def commit_front(self, index: int, kernel_id: int) -> None:
        """Copy ``index`` holds the complete committed result of ``kernel_id``.

        Every other copy is marked DIRTY; a worker copy fires its gate so
        scheduler threads waiting on the new version wake up.  An anchor
        commit leaves every worker copy waiting for its §5.6 read-back.
        """
        self.latest = kernel_id
        for i in range(len(self.versions)):
            self.versions[i] = kernel_id if i == index else DIRTY
        if index != 0:
            self.gates[index].fire(kernel_id)
        else:
            self.readback = ReadBack(kernel_id,
                                     set(range(1, len(self.copies))))

    def mark_refreshed(self, index: int, version: int) -> None:
        """A device-to-host transfer delivered ``version`` to copy ``index``."""
        self.versions[index] = version
        self._stop_waiting(index)
        if index != 0:
            self.gates[index].fire(version)

    def abandon_readback(self, index: int) -> None:
        """The read-back to worker copy ``index`` will not arrive.

        Wakes the copy's §5.3 waiters: they see it no longer pending with
        the version unchanged and react (failover data-loss detection).
        """
        self._stop_waiting(index)
        self.gates[index].fire(self.versions[index])

    def _stop_waiting(self, index: int) -> None:
        if self.readback is not None:
            self.readback.waiting.discard(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FluidiBuffer {self.name} latest={self.latest} "
            f"versions={self.versions}>"
        )
