"""The paper's guarantee at small scale, on every suite app (§8).

For each app on ``default`` (the CPU+GPU pair), ``big.little`` (two
GPUs) and the N-device presets ``cpu+2gpu`` and ``cpu+3gpu``, at small
scale and seed 1:

* the cooperative outputs are bitwise equal to the single-device GPU run;
* the cooperative run is at least :data:`GUARANTEE` times as fast as the
  best single device of the preset.

A case that still misses the guarantee is held at a floor instead: its
measured speedup, rounded down to 0.01.  Each one is listed in DESIGN.md
("Cases below the guarantee") with its cause where measured: bfs and
scan on every preset and histogram on the pairs are open under ROADMAP
item 2, gesummv's floors under ROADMAP item 1.
Raise a floor (or delete it) when a fix lands; never lower one to make a
change pass.
"""

import numpy as np
import pytest

from repro.harness.runner import measure_app
from repro.hw.machine import MACHINE_PRESETS
from repro.hw.specs import DeviceKind
from repro.ocl.runtime import SingleDeviceRuntime
from repro.polybench.suite import EXTENDED_SUITE, make_app

GUARANTEE = 0.9
PRESETS = ("default", "big.little", "cpu+2gpu", "cpu+3gpu")
#: (app, preset) -> floor for the cases still below GUARANTEE
FLOORS = {
    ("histogram", "default"): 0.84,
    ("bfs", "default"): 0.71,
    ("scan", "default"): 0.65,
    ("histogram", "big.little"): 0.84,
    ("bfs", "big.little"): 0.71,
    ("scan", "big.little"): 0.65,
    ("gesummv", "cpu+2gpu"): 0.89,
    ("bfs", "cpu+2gpu"): 0.71,
    ("scan", "cpu+2gpu"): 0.65,
    ("gesummv", "cpu+3gpu"): 0.86,
    ("bfs", "cpu+3gpu"): 0.71,
    ("scan", "cpu+3gpu"): 0.65,
}


def _single_device_kinds(preset):
    kinds = []
    for spec, _link in MACHINE_PRESETS[preset]:
        if spec.kind not in kinds:
            kinds.append(spec.kind)
    return kinds


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("name", EXTENDED_SUITE)
def test_cooperation_pays(name, preset):
    app = make_app(name, "small", seed=1)
    inputs = app.fresh_inputs()
    best = float("inf")
    gpu_outputs = None
    for kind in _single_device_kinds(preset):
        single = measure_app(app, lambda m, kind=kind: SingleDeviceRuntime(m, kind),
                             machine=preset, inputs=inputs, check=False)
        best = min(best, single.result.elapsed)
        if kind is DeviceKind.GPU:
            gpu_outputs = single.result.outputs
    run = measure_app(app, machine=preset, inputs=inputs, check=False)

    assert set(run.result.outputs) == set(gpu_outputs)
    for key, expected in gpu_outputs.items():
        assert np.array_equal(run.result.outputs[key], expected), key
    speedup = best / run.result.elapsed
    floor = FLOORS.get((name, preset), GUARANTEE)
    assert speedup >= floor, (
        f"{name} on {preset}: {speedup:.3f}x of the best single device, "
        f"below {floor}")

