"""Simulated-seconds pins of whole cooperative runs (BENCH_10's values).

FluidiCL's results are simulated running times of whole programs on the
modeled node, and the simulator is deterministic, so each of these runs
is held to its exact float with ``==``.  A pin moves only with a change
to what the runtime, executor or serve layer computes; re-baseline it on
purpose, together with the goldens.  perfbench times these runs (``pair``
and ``checked`` the apps, ``serve`` the open-loop path); this module
holds what they compute.
"""

import pytest

from repro.core.config import FluidiCLConfig
from repro.core.runtime import FluidiCLRuntime
from repro.harness.runner import measure_app
from repro.hw.specs import HOST_DDR3, PCIE_GEN2_X16, TESLA_C2070, XEON_W3550
from repro.polybench import make_app
from repro.serve.run import ServeConfig, run_serve


#: machine presets by name; ``half-gpu`` is the default pair with its GPU
#: at half rate, which shifts more work to the CPU scheduler
MACHINES = {
    "default": "default",
    "half-gpu": [(TESLA_C2070.scaled(0.5), PCIE_GEN2_X16),
                 (XEON_W3550, HOST_DDR3)],
    "cpu+2gpu": "cpu+2gpu",
}

#: the Fig. 15 ablation toggle and the §6.1 pool toggle
CONFIGS = {
    "default": FluidiCLConfig(),
    "no_abort": FluidiCLConfig(abort_in_loops=False),
    "no_pool": FluidiCLConfig(use_buffer_pool=False),
}

#: ``(app, machine, config)`` at ``small`` -> simulated seconds: a
#: cpu-favored (gesummv), a mixed (bicg) and a gpu-favored (syrk) app
APP_PINS = {
    ("gesummv", "default", "default"): 0.009184524169467788,
    ("bicg", "default", "default"): 0.006905767304741156,
    ("syrk", "default", "default"): 0.0019598795694745832,
    ("gesummv", "default", "no_abort"): 0.040059592039838166,
    ("syrk", "default", "no_abort"): 0.0025073985456717084,
    ("syrk", "default", "no_pool"): 0.0019598795694745832,
    ("gesummv", "half-gpu", "default"): 0.009320066558356677,
    ("syrk", "half-gpu", "default"): 0.002610758462123061,
    ("gesummv", "cpu+2gpu", "default"): 0.009590810002801122,
}


@pytest.mark.parametrize(
    "case, expected", APP_PINS.items(),
    ids=[".".join((app, "small", machine, config))
         for app, machine, config in APP_PINS],
)
def test_app_simulated_seconds(case, expected):
    app, machine, config = case
    run = measure_app(
        make_app(app, "small"),
        lambda node: FluidiCLRuntime(node, config=CONFIGS[config]),
        machine=MACHINES[machine],
    )
    assert run.result.elapsed == expected


def test_open_loop_serve_run():
    report = run_serve(ServeConfig(seed=0, requests=5000, arrival="poisson"))
    assert not report.violations
    assert report.simulated_seconds == 1.9520862696263654
    assert report.digest == (
        "1c306e27abe6d55acd1f699998769ca70db94fe59cdc9642ac9ebdf54325d25e"
    )
