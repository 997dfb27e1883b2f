"""StarPU task and data-handle model."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.dsl import Intent, KernelSpec
from repro.ocl.buffer import Buffer
from repro.sim.core import Engine, Event

__all__ = ["DataHandle", "Task"]

_task_ids = itertools.count(1)


class DataHandle:
    """A registered piece of data with MSI-style validity tracking.

    The *host* copy is a NumPy array; device copies are vendor buffers
    created lazily.  At any instant at least one copy is valid; tasks make
    their input handles valid on their worker's device before running and
    leave written handles valid only there.
    """

    def __init__(self, engine: Engine, name: str, shape, dtype):
        self.engine = engine
        self.name = name
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.host_array = np.zeros(self.shape, dtype=self.dtype)
        self.valid_on_host = True
        self.device_buffers: Dict[str, Buffer] = {}
        self.valid_on: Dict[str, bool] = {}
        #: dependency bookkeeping (sequential consistency per handle)
        self.last_writer: Optional["Task"] = None
        self.readers_since_write: List["Task"] = []

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    def buffer_on(self, device) -> Buffer:
        key = device.name
        if key not in self.device_buffers:
            self.device_buffers[key] = device.create_buffer(
                self.shape, self.dtype, name=f"{self.name}@{key}"
            )
            self.valid_on[key] = False
        return self.device_buffers[key]

    def is_valid_on(self, device) -> bool:
        return self.valid_on.get(device.name, False)

    def invalidate_everywhere_but(self, device) -> None:
        self.valid_on = {k: False for k in self.valid_on}
        self.valid_on[device.name] = True
        self.valid_on_host = False

    def mark_valid_on(self, device) -> None:
        self.valid_on[device.name] = True

    def valid_device_names(self) -> List[str]:
        return [k for k, valid in self.valid_on.items() if valid]


@dataclass
class Task:
    """One schedulable unit: a kernel launch over its full NDRange."""

    codelet: KernelSpec
    ndrange: Any
    #: (handle, intent) pairs in kernel-argument order
    accesses: Sequence[Tuple[DataHandle, Intent]]
    #: full argument map: handle or scalar per kernel arg name
    args: Dict[str, Any]
    engine: Engine
    id: int = field(default_factory=lambda: next(_task_ids))
    done: Event = None
    #: events this task must wait for (RAW/WAR/WAW)
    dependencies: List[Event] = field(default_factory=list)
    #: filled by the scheduler/worker
    worker_name: str = ""
    exec_seconds: float = 0.0
    transfer_bytes: int = 0

    def __post_init__(self):
        if self.done is None:
            self.done = Event(self.engine, name=f"task{self.id}")

    @property
    def name(self) -> str:
        return self.codelet.name

    def written_handles(self) -> List[DataHandle]:
        return [h for h, intent in self.accesses if intent.is_written]

    def compute_dependencies(self) -> None:
        """Sequential-consistency deps against earlier tasks on the same data.

        Readers depend on the last writer; writers depend on the last writer
        and on every reader since (WAR), then become the new last writer.
        """
        deps: List[Event] = []
        for handle, intent in self.accesses:
            if handle.last_writer is not None:
                deps.append(handle.last_writer.done)
            if intent.is_written:
                deps.extend(r.done for r in handle.readers_since_write)
        for handle, intent in self.accesses:
            if intent.is_written:
                handle.last_writer = self
                handle.readers_since_write = []
            else:
                handle.readers_since_write.append(self)
        # Deduplicate while preserving order.
        seen = set()
        self.dependencies = [
            d for d in deps if id(d) not in seen and not seen.add(id(d))
        ]
