"""Observability layer: recorder, Chrome export, overlap properties.

The last class holds the §5.5/§5.6 overlap assertions the paper motivates:
they are expressed against the typed event stream, the same stream the
ASCII Gantt and the Chrome-trace export read.
"""

import json

import numpy as np
import pytest

from repro.core.pool import ALLOC_BYTE_OVERHEAD, ALLOC_FIXED_OVERHEAD
from repro.core.runtime import FluidiCLRuntime
from repro.harness.runner import measure_app
from repro.hw.machine import build_machine
from repro.obs import (
    EventKind,
    EventRecorder,
    Phase,
    pair_spans,
    to_chrome_trace,
)
from repro.ocl.ndrange import NDRange
from repro.polybench import make_app

from tests.conftest import make_scale_kernel


# ----------------------------------------------------------------------
# EventRecorder: record ingestion and typed queries
# ----------------------------------------------------------------------
class TestEventRecorder:
    def test_command_records_become_spans(self):
        recorder = EventRecorder()
        recorder.record(0.0, "cmd_start",
                        {"queue": "q0", "type": "write_buffer", "buffer": "x"})
        recorder.record(2.0, "cmd_end",
                        {"queue": "q0", "type": "write_buffer", "buffer": "x"})
        spans = recorder.command_spans()
        assert len(spans) == 1
        span = spans[0]
        assert span.track == "q0"
        assert span.kind is EventKind.COMMAND
        assert span.start == 0.0 and span.end == 2.0
        assert span.duration == 2.0

    def test_spans_pair_fifo_per_track(self):
        """In-order queues pair begin/end FIFO; tracks never cross-pair."""
        recorder = EventRecorder()
        recorder.record(0.0, "cmd_start", {"queue": "a", "type": "k"})
        recorder.record(1.0, "cmd_start", {"queue": "b", "type": "k"})
        recorder.record(3.0, "cmd_end", {"queue": "b", "type": "k"})
        recorder.record(5.0, "cmd_end", {"queue": "a", "type": "k"})
        spans = {s.track: s for s in recorder.command_spans()}
        assert (spans["a"].start, spans["a"].end) == (0.0, 5.0)
        assert (spans["b"].start, spans["b"].end) == (1.0, 3.0)

    def test_end_attrs_override_begin_attrs(self):
        recorder = EventRecorder()
        recorder.record(0.0, "kernel_begin", {"kernel": "k", "groups": 8})
        recorder.record(1.0, "kernel_end", {"kernel": "k", "path": "merged"})
        (span,) = recorder.event_spans(EventKind.KERNEL)
        assert span.attrs["groups"] == 8
        assert span.attrs["path"] == "merged"

    def test_unknown_category_maps_to_generic_instant(self):
        recorder = EventRecorder()
        recorder.record(0.5, "somebody_elses_category", {"label": "x"})
        (event,) = recorder.events
        assert event.kind is EventKind.GENERIC
        assert event.phase is Phase.INSTANT
        assert event.name == "somebody_elses_category"

    def test_counts_count_spans_once(self):
        recorder = EventRecorder()
        recorder.record(0.0, "kernel_begin", {"kernel": "k"})
        recorder.record(1.0, "kernel_end", {"kernel": "k"})
        recorder.record(0.2, "pool_hit", {"label": "orig", "nbytes": 64})
        counts = recorder.counts()
        assert counts["kernel"] == 1
        assert counts["pool"] == 1

    def test_payload_is_copied(self):
        recorder = EventRecorder()
        payload = {"k": 1}
        recorder.record(0.0, "x", payload)
        payload["k"] = 99
        assert recorder.events[0]["k"] == 1

    def test_clear_resets_both_streams(self):
        recorder = EventRecorder()
        recorder.record(0.0, "pool_hit", {"label": "orig", "nbytes": 64})
        recorder.clear()
        assert recorder.events == []

    def test_alloc_spans_pair_on_the_blocked_threads_track(self):
        """A pool miss is an ``alloc`` span on the track it names; a hit
        stays an instant on the pool track."""
        recorder = EventRecorder()
        recorder.record(0.0, "alloc_begin", {"label": "orig", "nbytes": 64,
                                             "track": "runtime"})
        recorder.record(1.0, "alloc_begin", {"label": "cpuin", "nbytes": 64,
                                             "track": "fluidicl-w1-sched"})
        recorder.record(2.0, "alloc_end", {"label": "orig", "nbytes": 64,
                                           "track": "runtime"})
        recorder.record(3.0, "alloc_end", {"label": "cpuin", "nbytes": 64,
                                           "track": "fluidicl-w1-sched"})
        recorder.record(3.0, "pool_hit", {"label": "orig", "nbytes": 64})
        spans = {s.track: s for s in recorder.event_spans(EventKind.POOL)}
        assert (spans["runtime"].start, spans["runtime"].end) == (0.0, 2.0)
        assert spans["fluidicl-w1-sched"].duration == 2.0
        assert {s.name for s in spans.values()} == {"alloc"}
        (hit,) = recorder.instants(EventKind.POOL)
        assert (hit.name, hit.track) == ("hit", "pool")
        assert recorder.counts()["pool"] == 3

    def test_pair_spans_ignores_unmatched_begin(self):
        recorder = EventRecorder()
        recorder.record(0.0, "dh_readback_begin", {"kernel": "k", "kernel_id": 1})
        assert pair_spans(recorder.events) == []


# ----------------------------------------------------------------------
# End-to-end: one traced cooperative run feeds every consumer
# ----------------------------------------------------------------------
def _traced_run(n=16384, gpu_eff=0.4, cpu_eff=0.6):
    machine = build_machine(trace=True)
    runtime = FluidiCLRuntime(machine)
    spec = make_scale_kernel(n, gpu_eff=gpu_eff, cpu_eff=cpu_eff,
                             work_scale=32.0)
    x = runtime.create_buffer("x", (n,), np.float32)
    y = runtime.create_buffer("y", (n,), np.float32)
    runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
    runtime.enqueue_nd_range_kernel(
        spec, NDRange(n, 16), {"x": x, "y": y, "alpha": 2.0}
    )
    runtime.finish()
    runtime.drain()
    return machine, runtime


class TestTracedRun:
    def test_kernel_span_brackets_the_run(self):
        machine, runtime = _traced_run()
        (span,) = machine.tracer.event_spans(EventKind.KERNEL)
        record = runtime.records[0]
        assert span.start == pytest.approx(record.start_time)
        assert span.attrs["kernel_id"] == record.kernel_id

    def test_subkernel_events_match_record(self):
        machine, runtime = _traced_run()
        launches = machine.tracer.instants(EventKind.SUBKERNEL)
        assert len(launches) == runtime.records[0].subkernels
        assert len(launches) == runtime.stats.extra["subkernels_launched"]

    def test_chrome_trace_is_valid(self):
        machine, runtime = _traced_run()
        trace = to_chrome_trace(machine.tracer, process_name="test",
                                metrics=dict(runtime.stats.extra))
        events = trace["traceEvents"]
        assert events, "expected a non-empty traceEvents array"
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        for entry in events:
            assert {"name", "ph", "pid", "tid"} <= set(entry)
            if entry["ph"] == "X":
                assert entry["dur"] >= 0.0
                assert entry["ts"] >= 0.0
        metadata = [e for e in events if e["ph"] == "M"]
        named = {e["args"]["name"] for e in metadata}
        assert "test" in named  # process_name
        assert "fluidicl-app" in named  # one thread lane per track
        json.dumps(trace)  # fully serializable
        assert trace["otherData"]["metrics"]["merges"] >= 0

    def test_pool_misses_are_alloc_spans_of_the_blocked_thread(self):
        """scan on ``default``: every pool miss is one ``alloc`` span on the
        track of the thread it blocked, the spans add up to the modeled
        allocation cost, and the Chrome export carries them."""
        run = measure_app(make_app("scan", "small", seed=1), trace=True)
        pool = run.runtime.pool
        spans = run.machine.tracer.event_spans(EventKind.POOL)
        assert len(spans) == pool.misses > 0
        assert all(s.name == "alloc" for s in spans)
        assert {s.track for s in spans} <= {"runtime", "fluidicl-w1-sched"}
        expected = (pool.misses * ALLOC_FIXED_OVERHEAD
                    + sum(s.attrs["nbytes"] for s in spans)
                    * ALLOC_BYTE_OVERHEAD)
        assert sum(s.duration for s in spans) == pytest.approx(expected)
        assert not [e for e in run.machine.tracer.events
                    if e.category == "pool_miss"]
        chrome = [e for e in to_chrome_trace(run.machine.tracer)["traceEvents"]
                  if e["ph"] == "X" and e["cat"] == "pool"]
        assert len(chrome) == len(spans)

    def test_gantt_and_chrome_read_the_same_stream(self):
        """The ASCII Gantt's spans and the exporter's "X" command entries
        come from the identical paired stream — same count, same extent."""
        machine, _ = _traced_run()
        recorder = machine.tracer
        gantt_spans = recorder.command_spans()
        chrome_commands = [
            e for e in to_chrome_trace(recorder)["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "command"
        ]
        assert len(gantt_spans) == len(chrome_commands)
        assert max(s.end for s in gantt_spans) * 1e6 == pytest.approx(
            max(e["ts"] + e["dur"] for e in chrome_commands)
        )


# ----------------------------------------------------------------------
# Overlap properties (paper §5.5/§5.6) via the event stream
# ----------------------------------------------------------------------
class TestOverlapProperties:
    def _two_kernel_run(self):
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine)
        n = 16384
        # GPU-dominant: both kernels commit on the GPU and spawn a
        # background dh read-back.
        spec = make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.05,
                                 work_scale=32.0)
        x = runtime.create_buffer("x", (n,), np.float32)
        y1 = runtime.create_buffer("y1", (n,), np.float32)
        y2 = runtime.create_buffer("y2", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": x, "y": y1, "alpha": 2.0}
        )
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": x, "y": y2, "alpha": 3.0}
        )
        runtime.finish()
        runtime.drain()
        return machine, runtime

    def test_dh_readback_overlaps_next_kernel(self):
        """§5.5/§5.6: the device-to-host read-back of kernel k proceeds in
        the background, overlapped with kernel k+1's execution."""
        machine, runtime = self._two_kernel_run()
        recorder = machine.tracer
        kernels = sorted(recorder.event_spans(EventKind.KERNEL),
                         key=lambda s: s.start)
        readbacks = sorted(recorder.event_spans(EventKind.DH_READBACK),
                           key=lambda s: s.start)
        assert len(kernels) == 2 and len(readbacks) == 2
        first_dh, second_kernel = readbacks[0], kernels[1]
        assert first_dh.attrs["kernel_id"] == kernels[0].attrs["kernel_id"]
        assert first_dh.overlap(second_kernel) > 0.0

    def test_stale_discard_events_match_counter(self):
        """Every ``stale_dh_discards`` increment has a matching typed event
        (and vice versa) — the counter and the stream cannot drift."""
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine)
        n = 4096
        spec = make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.05,
                                 work_scale=32.0)
        x = runtime.create_buffer("x", (n,), np.float32)
        y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": x, "y": y, "alpha": 2.0}
        )
        # Overwrite y while its dh read-back is in flight: the late data
        # must be discarded, once per discard event.
        runtime.enqueue_write_buffer(y, np.full(n, -1.0, dtype=np.float32))
        runtime.finish()
        runtime.drain()
        discards = machine.tracer.instants(EventKind.STALE_DISCARD)
        assert len(discards) == runtime.stats.extra["stale_dh_discards"]
        assert len(discards) >= 1
        for event in discards:
            assert event.attrs["superseded_by"] > event.attrs["kernel_id"]

    def test_superseded_read_back_moves_no_data(self):
        """A host write that supersedes a kernel's version before the dh
        thread reaches the buffer leaves nothing worth reading back: the
        read-back is discarded without a D2H of the old version."""
        machine = build_machine(trace=True)
        runtime = FluidiCLRuntime(machine)
        n = 4096
        spec = make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.05,
                                 work_scale=32.0)
        x = runtime.create_buffer("x", (n,), np.float32)
        y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(x, np.ones(n, dtype=np.float32))
        record = runtime.enqueue_nd_range_kernel(
            spec, NDRange(n, 16), {"x": x, "y": y, "alpha": 2.0}
        )
        runtime.enqueue_write_buffer(y, np.full(n, -1.0, dtype=np.float32))
        runtime.finish()
        runtime.drain()
        (overwrite,) = [e for e in machine.tracer.instants(
                            EventKind.BUFFER_WRITE)
                        if e.attrs["buffer"] == "y"]
        assert overwrite.attrs["version"] > record.kernel_id
        late_reads = [s for s in machine.tracer.command_spans()
                      if s.track == "fluidicl-dh"
                      and s.attrs["buffer"].startswith("y@")
                      and s.start >= overwrite.ts]
        assert late_reads == []
        assert runtime.stats.extra["stale_dh_discards"] == 1
