"""Layer spans for the traced run, recorded from the benchmark's own code.

The program is not edited: :func:`install` wraps the public functions at
each layer boundary (class attributes patched in place, restored by
:meth:`Patches.restore`).  A span is opened around every wrapped call and
around every *resume* of a wrapped generator, so simulated processes are
charged to the package that defined their generator function, one resume
at a time.  Spans carry a layer, start, end, parent span and op id; they
stay in memory until :func:`rollup` turns them into per-layer self time
(a span's duration minus its children) and :func:`save` writes them out.

The wrappers only add host work around calls; they never change
arguments, return values, exceptions or the order of simulated events, so
a traced run reproduces the untraced run's simulated results exactly (the
benchmark checks this).
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: span layers; ``op`` is the root span of one benchmark op, so its self
#: time is the op wall time that no layer span covers
LAYERS = ("op", "sim", "ocl", "kernels", "core", "app", "obs", "check",
          "serve")
OP, SIM, OCL, KERNELS, CORE, APP, OBS, CHECK, SERVE = range(len(LAYERS))

#: package under ``src/repro/`` -> layer charged for resumes of the
#: simulated processes whose generator functions it defines
_GENERATOR_LAYER = {"sim": SIM, "ocl": OCL, "core": CORE, "serve": SERVE}

#: span layers folded into groups a ``cProfile`` rollup by package can
#: resolve: kernel bodies and host programs share the app packages
COMPARE_GROUPS = {
    "sim": ("sim",),
    "ocl": ("ocl",),
    "kernels+app": ("kernels", "app"),
    "core": ("core",),
    "obs": ("obs",),
    "check": ("check",),
    "serve": ("serve",),
}
_PACKAGE_GROUP = {
    "sim": "sim", "ocl": "ocl", "kernels": "kernels+app",
    "polybench": "kernels+app", "workloads": "kernels+app",
    "core": "core", "analysis": "core", "obs": "obs", "check": "check",
    "serve": "serve",
}


def package_of(filename: str) -> Optional[str]:
    """The ``repro`` package a source file belongs to, or None."""
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return None
    rest = filename[at + len(marker):]
    head, sep, _ = rest.partition(os.sep)
    return head if sep else None


class SpanLog:
    """Spans of one traced run, in flat typed arrays (compact in memory)."""

    def __init__(self):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._open: List[int] = [-1]
        #: id of the op the next spans belong to (set by the workload)
        self.op_id = -1
        #: event counts taken at the same boundaries as the spans
        self.counts: Counter = Counter()

    def begin(self, layer: int) -> int:
        index = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._open[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.layer)


def rollup(log: SpanLog) -> Dict[str, float]:
    """Self seconds per layer: each span's duration minus its children's."""
    import numpy as np

    n = len(log)
    totals = {name: 0.0 for name in LAYERS}
    if n == 0:
        return totals
    layer = np.frombuffer(log.layer, dtype=np.int8)
    parent = np.frombuffer(log.parent, dtype=np.int64)
    duration = np.frombuffer(log.end) - np.frombuffer(log.start)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested],
                           minlength=n)
    self_time = np.bincount(layer, weights=duration - children,
                            minlength=len(LAYERS))
    for index, name in enumerate(LAYERS):
        totals[name] = float(self_time[index])
    return totals


def save(log: SpanLog, path: str) -> None:
    """Write every span (layer, start, end, parent, op) as one ``.npz``."""
    import numpy as np

    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, layers=np.array(LAYERS),
             layer=np.frombuffer(log.layer, dtype=np.int8),
             start=np.frombuffer(log.start), end=np.frombuffer(log.end),
             parent=np.frombuffer(log.parent, dtype=np.int64),
             op=np.frombuffer(log.op, dtype=np.int64))


# -- wrappers -------------------------------------------------------------
def _timed_call(log: SpanLog, layer: int, fn: Callable,
                count: Optional[str] = None) -> Callable:
    counts = log.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            counts[count] += 1
        index = log.begin(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            log.finish(index)

    return wrapper


def _timed_resumes(log: SpanLog, layer: int, gen):
    """Drive ``gen`` transparently, one span per resume."""
    value = None
    thrown = None
    while True:
        index = log.begin(layer)
        try:
            if thrown is None:
                out = gen.send(value)
            else:
                out = gen.throw(thrown)
        except StopIteration as stop:
            return stop.value
        finally:
            log.finish(index)
        thrown = None
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            thrown = exc
            value = None


class Patches:
    """Class attributes replaced by :func:`install`, restorable in order."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        had_own = name in owner.__dict__
        self._saved.append((owner, name, had_own, owner.__dict__.get(name)))
        setattr(owner, name, value)

    def wrap(self, owner, name: str, make: Callable[[Callable], Callable]):
        self.set(owner, name, make(getattr(owner, name)))

    def restore(self) -> None:
        while self._saved:
            owner, name, had_own, old = self._saved.pop()
            if had_own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def install(log: SpanLog, app_classes=()) -> Patches:
    """Wrap every layer boundary; returns the patches to restore."""
    from repro.analysis.pipeline_sanitizer import PipelineSanitizer
    from repro.check.monitor import CoherenceMonitor
    from repro.core.runtime import FluidiCLRuntime
    from repro.obs.recorder import EventRecorder
    from repro.ocl.commands import Command
    from repro.ocl.kernel import Kernel
    from repro.ocl.queue import CommandQueue
    from repro.serve.server import Server
    from repro.sim.core import Engine, Event
    from repro.sim.resources import Channel, Resource
    from repro.sim.sync import Gate, Latch

    patches = Patches()
    counts = log.counts

    def call(owner, name, layer, count=None):
        patches.wrap(owner, name,
                     lambda fn: _timed_call(log, layer, fn, count))

    # sim: the run loops, the event factories (where events are counted)
    # and the primitives processes synchronize through
    call(Engine, "run", SIM)
    call(Engine, "run_for", SIM)
    for name in ("event", "timeout_ticks", "any_of", "all_of"):
        call(Engine, name, SIM, "sim.events")
    for owner, names in ((Event, ("succeed", "fail")),
                         (Resource, ("request", "release")),
                         (Channel, ("put", "get", "close")),
                         (Gate, ("fire", "wait")),
                         (Latch, ("count_down",))):
        for name in names:
            call(owner, name, SIM)
    engine_init = Engine.__init__

    def init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        # ``timeout`` is bound per instance (a partial), so wrap it there
        self.timeout = _timed_call(log, SIM, self.timeout, "sim.events")

    patches.set(Engine, "__init__", init)
    layer_of_code: Dict[object, Optional[int]] = {}
    engine_process = Engine.process

    def process(self, generator, name=""):
        counts["sim.events"] += 1
        code = getattr(generator, "gi_code", None)
        layer = layer_of_code.get(code, -1)
        if layer == -1:
            layer = (None if code is None else
                     _GENERATOR_LAYER.get(package_of(code.co_filename)))
            layer_of_code[code] = layer
        name = name or getattr(generator, "__name__", "process")
        if layer is not None:
            generator = _timed_resumes(log, layer, generator)
        index = log.begin(SIM)
        try:
            return engine_process(self, generator, name=name)
        finally:
            log.finish(index)

    patches.set(Engine, "process", process)

    # ocl: enqueue calls and resumes of every command's run generator
    for name in ("enqueue", "enqueue_write_buffer", "enqueue_read_buffer",
                 "enqueue_copy_buffer", "enqueue_nd_range_kernel",
                 "enqueue_marker", "enqueue_callback"):
        call(CommandQueue, name, OCL)
    pending = [Command]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__:
            def make(fn):
                @functools.wraps(fn)
                def run(self, queue):
                    counts["ocl.commands"] += 1
                    return _timed_resumes(log, OCL, fn(self, queue))
                return run
            patches.wrap(cls, "run", make)

    # kernels: work-group bodies, one call per group or per span of groups
    run_workgroup = Kernel.run_workgroup
    run_span = Kernel.run_span

    def timed_workgroup(self, ndrange, fid):
        counts["kernels.calls"] += 1
        counts["kernels.groups"] += 1
        index = log.begin(KERNELS)
        try:
            return run_workgroup(self, ndrange, fid)
        finally:
            log.finish(index)

    def timed_span(self, ndrange, lo, hi):
        counts["kernels.calls"] += 1
        counts["kernels.groups"] += max(0, hi - lo)
        index = log.begin(KERNELS)
        try:
            return run_span(self, ndrange, lo, hi)
        finally:
            log.finish(index)

    patches.set(Kernel, "run_workgroup", timed_workgroup)
    patches.set(Kernel, "run_span", timed_span)

    # core: the runtime's OpenCL-shaped API (its processes are covered by
    # the generator attribution above)
    call(FluidiCLRuntime, "__init__", CORE)
    for name in ("create_buffer", "enqueue_write_buffer",
                 "enqueue_read_buffer", "enqueue_nd_range_kernel", "finish",
                 "drain"):
        call(FluidiCLRuntime, name, CORE, "core.api_calls")

    # app: host programs, pipeline host stages included
    for cls in app_classes:
        call(cls, "host_program", APP)

    # obs and check: the recorder and its listeners
    call(EventRecorder, "record", OBS, "obs.records")
    call(CoherenceMonitor, "observe", CHECK, "check.checks")
    call(CoherenceMonitor, "final_check", CHECK, "check.checks")
    call(PipelineSanitizer, "__call__", CHECK, "check.checks")

    # serve: admission (dispatch and job stages are generator resumes)
    call(Server, "submit", SERVE, "serve.jobs")
    return patches


def layer_metrics(log: SpanLog) -> Dict[str, float]:
    """The host-clock per-layer metrics of one traced region."""
    self_s = rollup(log)
    counts = log.counts
    events = counts["sim.events"]
    records = counts["obs.records"]
    calls = counts["kernels.calls"]
    return {
        "sim.self_s": self_s["sim"],
        "sim.events": events,
        "sim.us_per_event": self_s["sim"] / events * 1e6 if events else 0.0,
        "ocl.self_s": self_s["ocl"],
        "ocl.commands": counts["ocl.commands"],
        "kernels.self_s": self_s["kernels"],
        "kernels.calls": calls,
        "kernels.groups": counts["kernels.groups"],
        "kernels.groups_per_call": (counts["kernels.groups"] / calls
                                    if calls else 0.0),
        "core.self_s": self_s["core"],
        "core.api_calls": counts["core.api_calls"],
        "app.self_s": self_s["app"],
        "obs.self_s": self_s["obs"],
        "obs.records": records,
        "obs.us_per_record": (self_s["obs"] / records * 1e6
                              if records else 0.0),
        "check.self_s": self_s["check"],
        "check.checks": counts["check.checks"],
        "serve.self_s": self_s["serve"],
        "serve.jobs": counts["serve.jobs"],
        "trace.unattributed_s": self_s["op"],
    }


# -- cProfile cross-check ---------------------------------------------------
def profile_shares(fn: Callable[[], None]) -> Dict[str, float]:
    """Run ``fn`` under ``cProfile``; tottime shares by package group.

    Builtins (NumPy kernels, dict operations, ...) are charged to the
    functions that called them; time in files outside ``src/repro`` goes
    to ``other``.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    totals: Counter = Counter()

    def group(filename: str) -> str:
        return _PACKAGE_GROUP.get(package_of(filename), "other")

    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in \
            stats.items():
        if filename == "~" and callers:
            for (caller_file, _l, _n), edge in callers.items():
                totals[group(caller_file)] += edge[2]
        else:
            totals[group(filename)] += tottime
    whole = sum(totals.values()) or 1.0
    return {name: value / whole for name, value in totals.items()}


def span_shares(self_s: Dict[str, float]) -> Dict[str, float]:
    """Per-layer self time folded into :data:`COMPARE_GROUPS`, as shares
    of all op time (unattributed time is the ``other`` share)."""
    whole = sum(self_s.values()) or 1.0
    shares = {
        group: sum(self_s[layer] for layer in layers) / whole
        for group, layers in COMPARE_GROUPS.items()
    }
    shares["other"] = self_s["op"] / whole
    return shares
