"""StarPU scheduling policies: eager, dmda, and calibration round-robin."""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.baselines.starpu.perfmodel import PerfModel

__all__ = ["Scheduler", "EagerScheduler", "DmdaScheduler", "RoundRobinScheduler",
           "make_scheduler"]


class Scheduler:
    """Routes ready tasks to workers."""

    name = "base"

    def __init__(self, workers: List):
        self.workers = list(workers)

    def task_ready(self, task) -> None:
        raise NotImplementedError

    def worker_idle(self, worker) -> None:
        """Called when a worker finishes its current task (pull policies)."""


class EagerScheduler(Scheduler):
    """StarPU's default: central FIFO, first idle worker takes the task.

    No performance model, no transfer awareness — "FluidiCL significantly
    outperforms the eager scheduler of StarPU in every benchmark" (§9.4).
    Idle workers are served in registration order (StarPU numbers its CPU
    workers first), so at startup the CPU grabs the first task.
    """

    name = "eager"

    def __init__(self, workers):
        super().__init__(workers)
        self._ready = deque()
        self._idle = deque(workers)

    def task_ready(self, task) -> None:
        if self._idle:
            self._idle.popleft().inbox.put(task)
        else:
            self._ready.append(task)

    def worker_idle(self, worker) -> None:
        if self._ready:
            worker.inbox.put(self._ready.popleft())
        else:
            self._idle.append(worker)


class DmdaScheduler(Scheduler):
    """Deque Model Data Aware: minimize predicted completion time.

    For each ready task, estimates per worker
    ``max(now, worker available) + transfer(missing bytes) + predicted exec``
    and enqueues the task on the argmin worker.  Predictions come from the
    calibrated :class:`PerfModel`; unmodeled (codelet, worker) pairs fall
    back to alternating assignment, which is how StarPU explores while a
    model is still being built.
    """

    name = "dmda"

    def __init__(self, workers, model: Optional[PerfModel] = None):
        super().__init__(workers)
        self.model = model or PerfModel()
        self._fallback_index = 0

    def task_ready(self, task) -> None:
        worker = self._choose(task)
        worker.available_at = self._estimate_end(worker, task)
        worker.inbox.put(task)

    def _choose(self, task):
        footprint = PerfModel.footprint(task)
        kinds = [w.kind for w in self.workers]
        if not self.model.is_calibrated_for(task.name, footprint, kinds):
            worker = self.workers[self._fallback_index % len(self.workers)]
            self._fallback_index += 1
            return worker
        return min(self.workers, key=lambda w: self._estimate_end(w, task))

    def _estimate_end(self, worker, task) -> float:
        now = worker.device.engine.now
        start = max(now, worker.available_at)
        transfer = self._transfer_estimate(worker, task)
        exec_est = self.model.predict(
            task.name, PerfModel.footprint(task), worker.kind
        ) or 0.0
        return start + transfer + exec_est

    @staticmethod
    def _transfer_estimate(worker, task) -> float:
        seconds = 0.0
        for handle, intent in task.accesses:
            if intent.is_read and not handle.is_valid_on(worker.device):
                seconds += worker.device.link.transfer_time(handle.nbytes)
        return seconds


class RoundRobinScheduler(Scheduler):
    """Alternate workers per codelet occurrence: calibration exploration.

    ``offset`` shifts the rotation so successive calibration runs place the
    same codelet on different workers — without it a two-kernel application
    would pin each kernel to one worker forever and the performance model
    would stay half-empty.
    """

    name = "roundrobin"

    def __init__(self, workers, offset: int = 0):
        super().__init__(workers)
        self._offset = offset
        self._per_codelet: dict = {}

    def task_ready(self, task) -> None:
        count = self._per_codelet.get(task.name, 0)
        self._per_codelet[task.name] = count + 1
        worker = self.workers[(count + self._offset) % len(self.workers)]
        worker.inbox.put(task)


def make_scheduler(name: str, workers, model: Optional[PerfModel] = None,
                   offset: int = 0) -> Scheduler:
    if name == "eager":
        return EagerScheduler(workers)
    if name == "dmda":
        return DmdaScheduler(workers, model)
    if name == "roundrobin":
        return RoundRobinScheduler(workers, offset=offset)
    raise KeyError(f"unknown StarPU scheduler {name!r}")
