"""GPU-side helper-buffer pool (paper §6.1).

FluidiCL needs, per out/inout buffer per kernel, two kinds of helper on
the anchor device.  Each lives only as long as its role:

* a **pristine copy** of the original contents, for the merge diff: the
  host acquires it before it enqueues the anchor kernel, and it returns
  once the kernel's in-flight worker sends drained out of the ``hd`` queue;
* a **landing area** per worker front for shipped results: that front's
  scheduler thread acquires it when it first ships the buffer (kernels
  that credit a worker nothing never allocate one), and it returns with
  the pristine copies.

The background read-back (§5.6) needs no helper: it reads the live
anchor copy, and a later kernel that writes that copy waits for it.

Creating and destroying these every kernel is expensive — the paper calls
this out as the reason ATAX trails OracleSP slightly — so a pool reuses
them across kernels.  Idle buffers stay allocated until device memory
runs short: a pool miss or a new application buffer that would not
otherwise fit frees them, least recently released first ("older unused
buffers are freed and GPU memory is reclaimed", §6.1).  There is no
per-shape cap and no age limit to tune.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ocl.buffer import Buffer
from repro.ocl.device import Device
from repro.ocl.enums import MemFlag
from repro.sim.core import Event

__all__ = ["BufferPool"]

#: fixed driver-side cost of one device allocation (cudaMalloc-like)
ALLOC_FIXED_OVERHEAD = 60e-6
#: incremental allocation cost per byte (page mapping)
ALLOC_BYTE_OVERHEAD = 1.0 / 40e9

_Key = Tuple[Tuple[int, ...], np.dtype]


class BufferPool:
    """Reusable device buffers, keyed by (shape, dtype).

    :meth:`acquire` returns ``(buffer, ready)``.  A pool hit costs nothing
    and ``ready`` is ``None``; a miss allocates a new buffer and ``ready``
    is the event that fires when the allocation is done — the thread that
    asked (the host, or a worker's scheduler) waits on it, and the wait is
    traced as an ``alloc`` span on that thread's track.  With pooling
    disabled every acquire allocates (and every release frees) — the
    configuration used to quantify §6.1's benefit.
    """

    def __init__(self, device: Device, enabled: bool = True):
        self.device = device
        self.enabled = enabled
        #: idle buffers with their keys, least recently released first
        self._idle: Dict[Buffer, _Key] = {}
        self._in_use: List[Buffer] = []
        self.hits = 0
        self.misses = 0

    @staticmethod
    def allocation_time(nbytes: int) -> float:
        return ALLOC_FIXED_OVERHEAD + nbytes * ALLOC_BYTE_OVERHEAD

    def acquire(self, shape: Tuple[int, ...], dtype, label: str = "pool",
                track: str = "runtime") -> Tuple[Buffer, Optional[Event]]:
        key = (tuple(shape), np.dtype(dtype))
        engine = self.device.engine
        # A hit takes the most recently released buffer of the key, so
        # the oldest ones stay first in line to be freed.
        for buffer in reversed(self._idle):
            if self._idle[buffer] == key:
                del self._idle[buffer]
                self._in_use.append(buffer)
                self.hits += 1
                engine.trace("pool_hit", label=label, nbytes=buffer.nbytes)
                return buffer, None
        nbytes = math.prod(key[0]) * key[1].itemsize
        self.make_room(nbytes)
        buffer = self.device.create_buffer(
            key[0], key[1], MemFlag.READ_WRITE, name=f"{label}{len(self._in_use)}"
        )
        self._in_use.append(buffer)
        self.misses += 1
        engine.trace("alloc_begin", label=label, nbytes=nbytes, track=track)
        ready = engine.timeout(self.allocation_time(nbytes))
        ready.add_callback(lambda _e: engine.trace(
            "alloc_end", label=label, nbytes=nbytes, track=track))
        return buffer, ready

    def release(self, buffer: Buffer) -> None:
        if buffer not in self._in_use:
            raise ValueError(f"buffer {buffer.name!r} was not acquired from this pool")
        self._in_use.remove(buffer)
        if self.enabled:
            self._idle[buffer] = (buffer.shape, buffer.dtype)
        else:
            buffer.release()

    def make_room(self, nbytes: int) -> None:
        """Free idle buffers, least recently released first, until an
        allocation of ``nbytes`` fits on the device.

        A no-op when it already fits, and when even an empty pool would
        not make it fit: the allocation then fails with
        :class:`~repro.hw.memory.OutOfDeviceMemoryError` and the pool
        keeps its buffers.
        """
        memory = self.device.memory
        free = memory.free
        if free >= nbytes or free + self.idle_bytes < nbytes:
            return
        while memory.free < nbytes:
            oldest = next(iter(self._idle))
            del self._idle[oldest]
            oldest.release()

    def drain(self) -> None:
        """Free everything idle (used at runtime release)."""
        for buffer in self._idle:
            buffer.release()
        self._idle.clear()

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    @property
    def idle_bytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._idle)

    @property
    def in_use_count(self) -> int:
        return len(self._in_use)
