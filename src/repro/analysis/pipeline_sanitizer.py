"""Runtime validation of the pipeline analyzer's static dataflow claims.

The static pass (:mod:`repro.analysis.pipeline_analyzer`) predicts, per
declared buffer, the set of producers any committed version may come from
(:func:`~repro.analysis.pipeline_analyzer.predicted_writers`).  The
:class:`PipelineSanitizer` is an :class:`~repro.obs.recorder.EventRecorder`
listener that checks those claims against what a cooperative run actually
does:

* ``kernel_begin`` events name each kernel id;
* ``commit`` events attribute a version (versions *are* kernel ids, see
  :mod:`repro.core.buffers`) to the committing kernel — a commit touching
  a buffer the static pass never predicted that kernel to write is an
  FK591 violation (binds drifted from the declaration);
* ``buffer_write`` events attribute host-written versions to the host;
* every ``buffer_read`` of a declared buffer must observe a version one
  of the predicted producers committed — anything else is an FK592
  violation (the declared dataflow and the executed dataflow diverged).

Violations are recorded always; after the run the wiring in
:class:`~repro.workloads.pipeline.PipelineApp` hands them, as findings
(:meth:`SanitizerViolation.as_finding`), to the runtime's one lint
emitter (``FluidiCLRuntime.emit_lint``), and under ``"strict"`` the
sanitizer raises :class:`PipelineSanitizerError` at the offending event.

A clean run emits **no** extra events and perturbs no simulated
timestamps, so traced schedules stay byte-identical under the sanitizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Finding, rule
from repro.analysis.pipeline_analyzer import HOST_PRODUCER

__all__ = [
    "SanitizerViolation",
    "PipelineSanitizerError",
    "PipelineSanitizer",
]


@dataclass(frozen=True)
class SanitizerViolation:
    """One observed divergence from the statically-predicted dataflow."""

    rule_id: str
    buffer: str
    version: Any
    producer: Optional[str]
    predicted: Tuple[str, ...]
    ts: float
    message: str

    def as_finding(self) -> Finding:
        return rule(self.rule_id).finding(self.message, buffer=self.buffer,
                                          stage=self.producer)


class PipelineSanitizerError(RuntimeError):
    """Strict-mode escalation of a :class:`SanitizerViolation`."""

    def __init__(self, violation: SanitizerViolation):
        super().__init__(
            f"pipeline sanitizer (strict): {violation.rule_id}: "
            f"{violation.message}"
        )
        self.violation = violation


class PipelineSanitizer:
    """Listener validating ``buffer_read`` versions against the static
    writer prediction for one pipeline run."""

    def __init__(self, predicted: Dict[str, Set[str]], *,
                 strict: bool = False):
        #: buffer name -> producer names the static pass allows
        self.predicted = {name: frozenset(producers)
                          for name, producers in predicted.items()}
        self.strict = strict
        self.violations: List[SanitizerViolation] = []
        #: reads/commits actually validated (observability for tests)
        self.checks = 0
        self._kernel_names: Dict[Any, str] = {}
        #: (buffer, version) -> observed producer name
        self._producers: Dict[Tuple[str, Any], str] = {}
        self._handlers = {
            "kernel_begin": self._on_kernel_begin,
            "commit": self._on_commit,
            "buffer_write": self._on_buffer_write,
            "buffer_read": self._on_buffer_read,
        }

    # -- listener plumbing -------------------------------------------------
    def attach(self, recorder) -> "PipelineSanitizer":
        recorder.add_listener(self)
        return self

    def detach(self, recorder) -> None:
        recorder.remove_listener(self)

    def __call__(self, event) -> None:
        handler = self._handlers.get(event.category)
        if handler is not None:
            handler(event)

    # -- handlers ----------------------------------------------------------
    def _on_kernel_begin(self, event) -> None:
        kernel_id = event.get("kernel_id")
        kernel = event.get("kernel")
        if kernel_id is not None and kernel:
            self._kernel_names[kernel_id] = kernel

    def _on_commit(self, event) -> None:
        kernel_id = event.get("kernel_id")
        producer = self._kernel_names.get(kernel_id)
        for buffer in event.get("buffers") or ():
            allowed = self.predicted.get(buffer)
            if allowed is None:
                continue  # not a declared pipeline buffer
            self._producers[(buffer, kernel_id)] = producer or "<unknown>"
            self.checks += 1
            if producer not in allowed:
                self._violate(SanitizerViolation(
                    rule_id="FK591", buffer=buffer, version=kernel_id,
                    producer=producer, predicted=tuple(sorted(allowed)),
                    ts=event.ts,
                    message=(
                        f"kernel {producer!r} committed version {kernel_id} "
                        f"of buffer {buffer!r}, but the static dataflow "
                        f"predicts only {sorted(allowed)} write it: the "
                        f"executed pipeline drifted from its declaration"
                    ),
                ))

    def _on_buffer_write(self, event) -> None:
        buffer = event.get("buffer")
        if buffer in self.predicted:
            self._producers[(buffer, event.get("version"))] = HOST_PRODUCER

    def _on_buffer_read(self, event) -> None:
        buffer = event.get("buffer")
        allowed = self.predicted.get(buffer)
        if allowed is None:
            return
        self.checks += 1
        version = event.get("version")
        producer = self._producers.get((buffer, version))
        if producer in allowed:
            return
        described = (f"writer {producer!r}" if producer is not None
                     else "a writer this run never attributed")
        self._violate(SanitizerViolation(
            rule_id="FK592", buffer=buffer, version=version,
            producer=producer,
            predicted=tuple(sorted(allowed)), ts=event.ts,
            message=(
                f"buffer_read of {buffer!r} observed version {version} "
                f"produced by {described}, but the static dataflow "
                f"predicts only {sorted(allowed)} as producers"
            ),
        ))

    def _violate(self, violation: SanitizerViolation) -> None:
        self.violations.append(violation)
        if self.strict:
            raise PipelineSanitizerError(violation)
