"""Tests for the command-span timeline — including the §5.5 overlap property."""

import numpy as np
import pytest

from repro.core.runtime import FluidiCLRuntime
from repro.harness.timeline import render_gantt
from repro.hw.machine import build_machine
from repro.obs import EventKind, EventRecorder, EventSpan
from repro.ocl.ndrange import NDRange

from tests.conftest import make_scale_kernel


def span(track, start, end):
    return EventSpan(EventKind.COMMAND, "k", track, start, end)


class TestSpanMechanics:
    def test_overlap_seconds(self):
        a = span("q", 0.0, 2.0)
        b = span("q", 1.0, 3.0)
        assert a.overlap(b) == pytest.approx(1.0)

    def test_no_overlap(self):
        a = span("q", 0.0, 1.0)
        b = span("q", 2.0, 3.0)
        assert a.overlap(b) == 0.0

    def test_duration(self):
        assert span("q", 1.0, 2.5).duration == pytest.approx(1.5)

    def test_extract_pairs_in_order(self):
        recorder = EventRecorder()
        payload = {"queue": "q", "type": "x", "kernel": "k"}
        recorder.record(0.0, "cmd_start", payload)
        recorder.record(1.0, "cmd_end", payload)
        recorder.record(1.0, "cmd_start", payload)
        recorder.record(3.0, "cmd_end", payload)
        spans = recorder.command_spans()
        assert [(s.start, s.end) for s in spans] == [(0.0, 1.0), (1.0, 3.0)]

    def test_render_empty(self):
        assert "empty" in render_gantt([])

    def test_render_contains_queues(self):
        spans = [span("alpha", 0.0, 1.0), span("beta", 0.5, 2.0)]
        chart = render_gantt(spans)
        assert "alpha" in chart and "beta" in chart
        assert "#" in chart


class TestFluidiclOverlap:
    def _traced_run(self):
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine)
        n = 16384
        spec = make_scale_kernel(n, gpu_eff=0.4, cpu_eff=0.6, work_scale=32.0)
        x = np.ones(n, dtype=np.float32)
        buf_x = runtime.create_buffer("x", (n,), np.float32)
        buf_y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(buf_x, x)
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": buf_x, "y": buf_y, "alpha": 2.0}
        )
        out = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_y, out)
        runtime.finish()
        runtime.drain()
        return machine, runtime

    def test_cpu_results_transfer_overlaps_gpu_compute(self):
        """§5.5: hd-queue transfers proceed while the GPU kernel runs."""
        machine, _runtime = self._traced_run()
        spans = machine.tracer.command_spans()
        gpu_kernels = [
            s for s in spans
            if s.track == "fluidicl-app"
            and s.attrs["type"] == "ndrange_kernel" and "merge" not in s.name
        ]
        hd_transfers = [
            s for s in spans
            if s.track == "fluidicl-hd" and s.attrs["type"] == "write_buffer"
        ]
        assert gpu_kernels and hd_transfers
        overlapped = sum(
            k.overlap(t) for k in gpu_kernels for t in hd_transfers
        )
        assert overlapped > 0, "CPU->GPU shipping must overlap GPU compute"

    def test_cpu_and_gpu_kernels_overlap(self):
        """The essence of cooperative execution: both devices compute at
        the same simulated time."""
        machine, _runtime = self._traced_run()
        spans = [s for s in machine.tracer.command_spans()
                 if s.attrs["type"] == "ndrange_kernel"]
        gpu = [s for s in spans if s.track == "fluidicl-app"]
        cpu = [s for s in spans if s.track == "fluidicl-w1"]
        assert gpu and cpu
        overlapped = sum(g.overlap(c) for g in gpu for c in cpu)
        assert overlapped > 0

    def test_gantt_renders_all_queues(self):
        machine, _runtime = self._traced_run()
        chart = render_gantt(machine.tracer.command_spans())
        for queue in ("fluidicl-app", "fluidicl-w1", "fluidicl-hd"):
            assert queue in chart
