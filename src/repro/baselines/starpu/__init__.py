"""A StarPU-like heterogeneous task runtime with an SOCL facade (§9.4).

StarPU schedules *whole tasks* (here: one task per kernel launch) onto
workers, inserting data transfers as needed; SOCL is the OpenCL-API wrapper
over it.  Two schedulers are modeled, matching the paper's comparison:

* ``eager`` — StarPU's default: a central ready queue, first idle worker
  takes the next task, no performance or transfer awareness.
* ``dmda``  — deque model data aware: each ready task goes to the worker
  minimizing (worker availability + data transfer time + predicted
  execution time), where predictions come from a *calibrated* history-based
  performance model (:func:`calibrate_perfmodel` runs the application
  several times to build it, as SOCL requires).

The crucial structural difference from FluidiCL: a task is indivisible, so
a single-kernel application can never use both devices at once.
"""

from repro.baselines.starpu.perfmodel import PerfModel, calibrate_perfmodel
from repro.baselines.starpu.scheduler import (
    DmdaScheduler,
    EagerScheduler,
    RoundRobinScheduler,
)
from repro.baselines.starpu.socl import SoclRuntime
from repro.baselines.starpu.tasks import DataHandle, Task

__all__ = [
    "DataHandle",
    "DmdaScheduler",
    "EagerScheduler",
    "PerfModel",
    "RoundRobinScheduler",
    "SoclRuntime",
    "Task",
    "calibrate_perfmodel",
]
