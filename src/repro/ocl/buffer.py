"""Device buffers living in discrete per-device address spaces."""

from __future__ import annotations

import itertools
import math
from typing import Optional, Tuple

import numpy as np

from repro.ocl.enums import MemFlag

__all__ = ["Buffer"]

_buffer_ids = itertools.count(1)


class Buffer:
    """A ``cl_mem`` object: bytes resident on exactly one device.

    Content is copy-on-write.  A host write is cast and copied once into a
    read-only array (:meth:`freeze`); every device copy that receives it,
    and any same-device :meth:`copy_from` of such a copy, aliases that one
    array.  The first writable access (:attr:`array`) materializes a
    private copy, which no other device (nor the host) can see without an
    explicit transfer command — what makes the coherence work of the
    runtimes above observable and testable.  A buffer nobody wrote holds
    no array at all and reads as zeros.

    The element dtype/shape is kept as metadata; the paper stores the base
    type of each buffer "as a metadata at the beginning of each buffer" to
    pick the diff/merge granularity (section 4.3).

    A ``sub_buffer`` (``clCreateSubBuffer``) has no device-memory handle
    of its own: the allocation it was carved from owns the bytes, so
    releasing it frees nothing.  A released buffer of either form is a
    dead handle, and every later access to its contents raises.
    """

    __slots__ = ("id", "name", "device", "shape", "dtype", "flags", "nbytes",
                 "_array", "_mem_handle", "released")

    def __init__(self, device, shape: Tuple[int, ...], dtype,
                 flags: MemFlag = MemFlag.READ_WRITE, name: str = "",
                 sub_buffer: bool = False):
        self.id = next(_buffer_ids)
        self.device = device
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.flags = flags
        self.name = name or f"buf{self.id}"
        self.nbytes = int(math.prod(self.shape)) * self.dtype.itemsize
        #: ``None`` (zeros, never allocated), a frozen shared array, or a
        #: private writable one
        self._array: Optional[np.ndarray] = None
        self._mem_handle: Optional[int] = (
            None if sub_buffer else device.memory.allocate(self.nbytes))
        self.released = False

    @property
    def array(self) -> np.ndarray:
        """The device-resident contents, writable.

        Materializes a private copy on the first access after the buffer
        aliased a frozen array (or was never written).  Only device-side
        code (kernel bodies, transfer commands) should touch this directly.
        """
        if self.released:
            raise RuntimeError(f"use after release of {self.name!r}")
        array = self._array
        if array is None:
            array = self._array = np.zeros(self.shape, dtype=self.dtype)
        elif not array.flags.writeable:
            array = self._array = array.copy()
        return array

    @property
    def view(self) -> np.ndarray:
        """The contents for a reader, never copied.

        This is the shared frozen array while the buffer aliases one — so
        a kernel body writing an argument it declared ``in`` fails with
        NumPy's read-only error instead of changing every device's copy —
        and the private array otherwise.
        """
        if self.released:
            raise RuntimeError(f"use after release of {self.name!r}")
        array = self._array
        return self.array if array is None else array

    def _check_live(self) -> None:
        """Raise if this buffer was released (a dead handle)."""
        if self.released:
            raise RuntimeError(f"use after release of {self.name!r}")

    def freeze(self, host_array: np.ndarray) -> np.ndarray:
        """Host data as a read-only array of this buffer's dtype and shape.

        The one copy of a host write, made at the call so the host may
        reuse its array at once; :meth:`write_from` aliases the result.
        Raises ``ValueError`` if the element count does not match.
        """
        self.check_host(host_array)
        frozen = np.array(host_array, dtype=self.dtype,
                          order="C").reshape(self.shape)
        frozen.flags.writeable = False
        return frozen

    def check_host(self, host_array: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``host_array`` has this buffer's
        element count."""
        if np.size(host_array) != math.prod(self.shape):
            raise ValueError(
                f"host array of shape {np.shape(host_array)} does not fit "
                f"buffer {self.name!r} of shape {self.shape}"
            )

    def _is_frozen(self, array) -> bool:
        return (isinstance(array, np.ndarray) and not array.flags.writeable
                and array.dtype == self.dtype and array.shape == self.shape)

    def _overwrite_target(self) -> np.ndarray:
        """A private array whose current contents are about to be replaced."""
        array = self._array
        if array is None or not array.flags.writeable:
            array = self._array = np.empty(self.shape, dtype=self.dtype)
        return array

    def write_from(self, host_array: np.ndarray) -> None:
        """Device-side effect of a completed host-to-device transfer.

        A read-only array of exactly this buffer's dtype and shape — what
        :meth:`freeze` returns — is taken as immutable and aliased; any
        other source is copied into a private array.
        """
        self._check_live()
        if self._is_frozen(host_array):
            self._array = host_array
            return
        src = np.asarray(host_array, dtype=self.dtype).reshape(self.shape)
        np.copyto(self._overwrite_target(), src)

    def read_into(self, host_array: np.ndarray) -> None:
        """Device-side effect of a completed device-to-host transfer.

        The device side is reshaped to the destination, so a
        non-contiguous host array is written in place.
        """
        self._check_live()
        if self._array is None:
            np.copyto(host_array, 0)
        else:
            np.copyto(host_array, self._array.reshape(np.shape(host_array)))

    def copy_from(self, other: "Buffer") -> None:
        """Device-local clone of another buffer's contents (same device).

        A frozen source is aliased, not copied.
        """
        self._check_live()
        other._check_live()
        if other.device is not self.device:
            raise ValueError(
                "copy_from requires same-device buffers; use a transfer command"
            )
        src = other._array
        if src is None:
            self._array = None
        elif self._is_frozen(src):
            self._array = src
        else:
            np.copyto(self._overwrite_target().reshape(-1), src.reshape(-1))

    def snapshot(self) -> np.ndarray:
        """Private copy of the current contents (used by tests and the merge
        step)."""
        self._check_live()
        if self._array is None:
            return np.zeros(self.shape, dtype=self.dtype)
        return self._array.copy()

    def release(self) -> None:
        """``clReleaseMemObject``: free the device allocation, if this
        buffer owns one, and drop the contents."""
        if not self.released:
            if self._mem_handle is not None:
                self.device.memory.release(self._mem_handle)
            self._array = None
            self.released = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Buffer {self.name} {self.shape}:{self.dtype} on "
            f"{self.device.spec.name}>"
        )
