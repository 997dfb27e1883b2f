"""GPU-side helper-buffer pool (paper §6.1).

FluidiCL needs, per out/inout buffer per kernel, two kinds of helper on
the anchor device.  Each lives only as long as its role:

* a **pristine copy** of the original contents, for the merge diff: the
  host acquires the kernel's copies before it enqueues the anchor kernel,
  and they return at the kernel's commit, since no transfer or merge
  touches them after it;
* a **landing area** per worker front for shipped results: that front's
  scheduler thread acquires the kernel's areas right after it enqueues
  its first subkernel and waits for them while the subkernel runs (a
  front that never ships allocates them too, off every critical path),
  and they return once the kernel's in-flight worker sends drained out
  of the ``hd`` queue.

The background read-back (§5.6) needs no helper: it reads the live
anchor copy, and a later kernel that writes that copy waits for it.

Creating and destroying device memory every kernel is expensive — the
paper calls this out as the reason ATAX trails OracleSP slightly — and
the cost is mostly a fixed one per allocation.  So the pool hands out
helpers as *sub-buffers* carved from device allocations, the
``clCreateSubBuffer`` pattern.  One :meth:`BufferPool.acquire` serves
every helper one thread needs for one kernel: the helpers go, largest
first, into the tightest idle allocation that still has room (several
per allocation), and whatever does not fit gets one new allocation.  An
allocation idles once every sub-buffer carved from it is released, and
stays allocated until device memory runs short: a new allocation or a
new application buffer that would not otherwise fit frees whole idle
allocations, least recently idled first ("older unused buffers are freed
and GPU memory is reclaimed", §6.1).  There is no cap and no age limit
to tune.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.memory import OutOfDeviceMemoryError
from repro.ocl.buffer import Buffer
from repro.ocl.device import Device
from repro.sim.core import Event

__all__ = ["BufferPool"]

#: fixed driver-side cost of one device allocation (cudaMalloc-like)
ALLOC_FIXED_OVERHEAD = 60e-6
#: incremental allocation cost per byte (page mapping)
ALLOC_BYTE_OVERHEAD = 1.0 / 40e9

#: one helper to acquire: its (shape, dtype)
Helper = Tuple[Tuple[int, ...], object]


class _Allocation:
    """One device allocation that sub-buffers are carved from.

    Only an idle allocation is carved, and all of its bytes are free then.
    """

    __slots__ = ("handle", "nbytes", "live")

    def __init__(self, handle: int, nbytes: int):
        self.handle = handle
        self.nbytes = nbytes
        #: sub-buffers carved and not yet released
        self.live = 0


class BufferPool:
    """Device allocations on one device, handed out as sub-buffers.

    :meth:`acquire` returns ``(buffers, ready)``.  Helpers carved from
    idle allocations are hits and cost nothing; the rest share one new
    allocation, and ``ready`` is the event that fires when it is done
    (``None`` if every helper was a hit).  The thread that asked (the
    host, or a worker's scheduler) waits on it, and the wait is traced as
    one ``alloc`` span on that thread's track.  ``misses`` counts device
    allocations, ``hits`` helpers served without one.  With pooling
    disabled every acquisition allocates and its allocation is freed
    once its sub-buffers are all released — the configuration used to
    quantify §6.1's benefit.
    """

    def __init__(self, device: Device, enabled: bool = True):
        self.device = device
        self.enabled = enabled
        #: idle allocations, least recently idled first
        self._idle: Dict[_Allocation, None] = {}
        #: live sub-buffer -> the allocation it was carved from
        self._owner: Dict[Buffer, _Allocation] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def allocation_time(nbytes: int) -> float:
        return ALLOC_FIXED_OVERHEAD + nbytes * ALLOC_BYTE_OVERHEAD

    def acquire(self, helpers: Sequence[Helper], label: str = "pool",
                track: str = "runtime") -> Tuple[List[Buffer], Optional[Event]]:
        """Sub-buffers for ``helpers`` (``(shape, dtype)`` pairs), in order.

        Largest helper first, each goes into the idle allocation with the
        least room that still fits it, the most recently idled of equals,
        and an allocation keeps taking helpers while it has room.  The
        helpers left over share one new allocation of their summed bytes,
        after :meth:`make_room` made it fit.
        """
        engine = self.device.engine
        dtypes = [np.dtype(dtype) for _shape, dtype in helpers]
        sizes = [math.prod(shape) * dtype.itemsize
                 for (shape, _), dtype in zip(helpers, dtypes)]
        homes: List[Optional[_Allocation]] = [None] * len(helpers)
        # room left in each idle allocation carved so far
        room: Dict[_Allocation, int] = {}

        def left(allocation: _Allocation) -> int:
            return room.get(allocation, allocation.nbytes)

        # Most recently idled first: ``min`` keeps the first of equals.
        candidates = list(reversed(self._idle))
        for i in sorted(range(len(helpers)), key=lambda i: -sizes[i]):
            fitting = [a for a in candidates if sizes[i] <= left(a)]
            if fitting:
                best = min(fitting, key=left)
                room[best] = left(best) - sizes[i]
                homes[i] = best
        before = dict(self._idle)
        for allocation in room:
            del self._idle[allocation]
        rest = [i for i, home in enumerate(homes) if home is None]
        ready = None
        if rest:
            nbytes = sum(sizes[i] for i in rest)
            try:
                self.make_room(nbytes)
                fresh = _Allocation(self.device.memory.allocate(nbytes), nbytes)
            except OutOfDeviceMemoryError:
                # make_room frees nothing when the allocation cannot fit,
                # so the pool goes back as it was
                self._idle = before
                raise
            for i in rest:
                homes[i] = fresh
            self.misses += 1
            engine.trace("alloc_begin", label=label, nbytes=nbytes, track=track)
            ready = engine.timeout(self.allocation_time(nbytes))
            ready.add_callback(lambda _e: engine.trace(
                "alloc_end", label=label, nbytes=nbytes, track=track))
        buffers = []
        for (shape, _), dtype, size, home in zip(helpers, dtypes, sizes, homes):
            if home in room:
                self.hits += 1
                engine.trace("pool_hit", label=label, nbytes=size)
            buffer = Buffer(self.device, shape, dtype, sub_buffer=True,
                            name=f"{label}{len(self._owner)}")
            home.live += 1
            self._owner[buffer] = home
            buffers.append(buffer)
        return buffers, ready

    def release(self, buffer: Buffer) -> None:
        """Kill the sub-buffer; its allocation idles (or, disabled, is
        freed) once its last sub-buffer is released."""
        allocation = self._owner.pop(buffer, None)
        if allocation is None:
            raise ValueError(f"buffer {buffer.name!r} was not acquired from this pool")
        buffer.release()
        allocation.live -= 1
        if allocation.live:
            return
        if self.enabled:
            self._idle[allocation] = None
        else:
            self.device.memory.release(allocation.handle)

    def make_room(self, nbytes: int) -> None:
        """Free whole idle allocations, least recently idled first, until
        an allocation of ``nbytes`` fits on the device.

        A no-op when it already fits, and when even an empty pool would
        not make it fit: the allocation then fails with
        :class:`~repro.hw.memory.OutOfDeviceMemoryError` and the pool
        keeps its allocations.
        """
        memory = self.device.memory
        free = memory.free
        if free >= nbytes or free + self.idle_bytes < nbytes:
            return
        while memory.free < nbytes:
            oldest = next(iter(self._idle))
            del self._idle[oldest]
            memory.release(oldest.handle)

    def drain(self) -> None:
        """Free every idle allocation (used at runtime release)."""
        for allocation in self._idle:
            self.device.memory.release(allocation.handle)
        self._idle.clear()

    @property
    def idle_count(self) -> int:
        """Idle allocations."""
        return len(self._idle)

    @property
    def idle_bytes(self) -> int:
        return sum(allocation.nbytes for allocation in self._idle)

    @property
    def in_use_count(self) -> int:
        """Sub-buffers handed out and not yet released."""
        return len(self._owner)
