"""Baselines the paper compares FluidiCL against.

* :mod:`repro.baselines.static_partition` — hand-partitioned static x%/y%
  splits and the OracleSP sweep (§9.1, Figs. 2/3).
* :mod:`repro.baselines.starpu` — a StarPU-like task runtime with ``eager``
  and ``dmda`` schedulers behind an SOCL-style OpenCL facade (§9.4).
"""

from repro.baselines.static_partition import (
    OracleResult,
    StaticPartitionRuntime,
    oracle_static_partition,
    split_sweep,
)
from repro.baselines.starpu import (
    PerfModel,
    SoclRuntime,
    calibrate_perfmodel,
)

__all__ = [
    "OracleResult",
    "PerfModel",
    "SoclRuntime",
    "StaticPartitionRuntime",
    "calibrate_perfmodel",
    "oracle_static_partition",
    "split_sweep",
]
