"""Multi-kernel version tracking through a 3-kernel chain (satellite of
the repro.check PR).

3MM (``E = A*B; F = C*D; G = E*F``) chains three kernels through
intermediate buffers that the host never writes or reads.  With location
tracking on, kernel N+1 must consume kernel N's output where it already
lives — no redundant host-side re-upload — and the final read must
observe the newest committed versions (§5.3, §6.2).
"""

import numpy as np

from repro.check import CoherenceMonitor
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.polybench.suite import make_app


def run_3mm_traced():
    machine = build_machine(trace=True)
    runtime = FluidiCLRuntime(machine)
    monitor = CoherenceMonitor().attach(machine.tracer)
    app = make_app("3mm", scale="test")
    result = app.execute(runtime, check=True)
    runtime.drain()
    monitor.final_check()
    return machine.tracer, monitor, result, runtime


class TestThreeKernelChain:
    def setup_method(self):
        (self.recorder, self.monitor, self.result,
         self.runtime) = run_3mm_traced()
        self.events = self.recorder.events

    def of(self, category):
        return [e for e in self.events if e.category == category]

    def test_result_correct_and_invariants_hold(self):
        assert self.result.correct, self.result
        assert self.monitor.ok, self.monitor.report()

    def test_three_kernels_commit_in_version_order(self):
        commits = self.of("commit")
        assert len(commits) == 3
        kernel_ids = [c["kernel_id"] for c in commits]
        assert kernel_ids == sorted(kernel_ids)
        committed = {name for c in commits for name in c["buffers"]}
        assert committed == {"E", "F", "G"}

    def test_intermediates_are_never_host_written(self):
        """E, F and G exist only on the devices: any ``buffer_write`` for
        them would be a redundant host->device transfer."""
        written = {e["buffer"] for e in self.of("buffer_write")}
        assert written == {"A", "B", "C", "D"}

    def test_no_redundant_gpu_refresh_of_current_buffers(self):
        """An input_refresh of the anchor re-uploads CPU data to the GPU;
        it is only justified for buffers whose last commit left the GPU
        copy stale (cpu-complete / failover paths)."""
        refreshes = self.of("input_refresh")
        # every refresh the runtime counts is traced under this name
        assert len(refreshes) == self.runtime.stats.extra["input_refreshes"]
        cpu_side_paths = ("cpu-complete", "failover")
        commit_path = {}
        for commit in self.of("commit"):
            for name in commit["buffers"]:
                commit_path[name] = commit["path"]
        anchor = self.runtime.gpu_device.name
        for refresh in refreshes:
            if refresh["device"] != anchor:
                continue
            name = refresh["buffer"]
            assert commit_path.get(name) in cpu_side_paths, (
                f"redundant refresh of {name!r}: GPU copy was already "
                f"current after a {commit_path.get(name)!r} commit"
            )

    def test_final_read_observes_the_newest_version(self):
        reads = [e for e in self.of("buffer_read") if e["buffer"] == "G"]
        assert len(reads) == 1
        commit_g = next(c for c in self.of("commit")
                        if "G" in c["buffers"])
        assert reads[0]["version"] == commit_g["kernel_id"]

    def test_consumer_kernels_start_after_producer_commits(self):
        """Kernel 3 (reads E and F) must begin only after both producers
        committed — the version wait the runtime performs (§5.3)."""
        begins = self.of("kernel_begin")
        assert len(begins) == 3
        third_begin_ts = begins[2].ts
        for name in ("E", "F"):
            commit = next(c for c in self.of("commit")
                          if name in c["buffers"])
            assert commit.ts <= third_begin_ts


class TestChainNumerics:
    def test_outputs_match_reference(self):
        _, _, result, _ = run_3mm_traced()
        app = make_app("3mm", scale="test")
        inputs = app.fresh_inputs()
        expected = app.reference(inputs)
        assert result.max_relative_error <= 5e-3
        assert set(result.outputs) == set(expected)
        assert result.outputs["G"].shape == expected["G"].shape
        assert np.isfinite(result.outputs["G"]).all()
