"""The diagnostics engine of the static kernel analyzer.

Every problem the analyzer (or the kernel DSL's declaration validation)
can report is an instance of a registered :class:`Rule` — a stable ID, a
default :class:`Severity`, a short title and the paper section motivating
it.  Individual occurrences are :class:`Finding` objects carrying the
kernel, the offending argument, a source location and a fix hint; a
:class:`LintReport` collects the findings for one kernel and renders the
*fluidic-safe* verdict the runtime gate and the fuzzer consume.

This module is import-light on purpose: :mod:`repro.kernels.dsl` raises
:class:`KernelDeclarationError` (built on the same :class:`Finding` type)
from ``KernelSpec``/``ArgSpec`` construction, so nothing here may import
the DSL back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Severity",
    "Rule",
    "RULES",
    "rule",
    "SourceLocation",
    "Finding",
    "LintReport",
    "KernelDeclarationError",
    "LintError",
]


class Severity(str, enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a kernel *not fluidic-safe*: partitioning it at
    work-group granularity (paper §4) can corrupt results, so the strict
    runtime gate refuses to launch it cooperatively.  ``WARNING`` findings
    are declared-intent drift or performance hazards (redundant merges,
    missing abort checks); ``INFO`` findings are advisory only.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Rule:
    """One registered lint rule (see DESIGN.md, 'Static kernel analysis')."""

    id: str
    title: str
    severity: Severity
    #: paper section the rule enforces/reproduces
    paper: str = ""

    def finding(self, message: str, **kwargs: Any) -> "Finding":
        """Instantiate a finding of this rule (severity defaulted)."""
        return Finding(rule_id=self.id, severity=self.severity,
                       message=message, **kwargs)


def _registry(*rules: Rule) -> Dict[str, Rule]:
    table: Dict[str, Rule] = {}
    for r in rules:
        if r.id in table:  # pragma: no cover - programming error
            raise ValueError(f"duplicate rule id {r.id}")
        table[r.id] = r
    return table


#: the rule catalog; IDs are stable and documented in DESIGN.md
RULES: Dict[str, Rule] = _registry(
    # -- declaration rules (FK0xx): kernel signature well-formedness -------
    Rule("FK001", "duplicate argument names", Severity.ERROR),
    Rule("FK002", "scalar argument with non-'in' intent", Severity.ERROR),
    Rule("FK003", "argument name is not a valid identifier", Severity.ERROR),
    # -- intent rules (FK1xx): declared vs. inferred dataflow (§4.1) -------
    Rule("FK101", "under-declared write: buffer written but declared 'in'",
         Severity.ERROR, paper="§4.1"),
    Rule("FK102", "buffer declared 'out' but its prior contents are read",
         Severity.WARNING, paper="§4.1"),
    Rule("FK103", "body references an undeclared argument", Severity.ERROR),
    Rule("FK104", "scalar argument written by the body", Severity.ERROR),
    Rule("FK110", "over-declared write: buffer declared out/inout but never "
                  "written", Severity.WARNING, paper="§4.1"),
    Rule("FK111", "buffer declared 'inout' but never read", Severity.WARNING,
         paper="§4.1"),
    Rule("FK112", "declared argument never referenced by the body",
         Severity.WARNING),
    # -- work-group race rules (FK2xx): is the kernel partitionable? -------
    Rule("FK201", "cross-work-group write: index not derived from the "
                  "group's own tile", Severity.ERROR, paper="§4/Fig. 7"),
    Rule("FK202", "cross-work-group read of a written buffer",
         Severity.ERROR, paper="§4/Fig. 7"),
    Rule("FK203", "buffer access through an unresolvable key",
         Severity.WARNING),
    Rule("FK210", "kernel body is not statically analyzable", Severity.INFO),
    # -- abort-transformation rules (FK3xx): §5/§6 rewrites ----------------
    Rule("FK301", "long loop without in-loop abort checks: a running "
                  "work-group cannot terminate early", Severity.WARNING,
         paper="§6.4"),
    Rule("FK302", "in-loop abort checks without re-unrolling: per-group "
                  "cost inflated by the no-unroll penalty", Severity.WARNING,
         paper="§6.5"),
    Rule("FK303", "body contains an explicit loop but the cost model "
                  "declares loop_iters<=1", Severity.WARNING, paper="§5"),
    # -- pipeline dataflow rules (FK4xx): inter-stage hazards --------------
    Rule("FK401", "stale cross-stage read: a later stage reads a buffer "
                  "whose last writer's declared intent does not cover the "
                  "write", Severity.ERROR, paper="§4.1"),
    Rule("FK402", "write-after-write between stages with no intervening "
                  "reader: no dependency edge orders the writes",
         Severity.WARNING, paper="§4.1"),
    Rule("FK403", "loop-carried buffer written under a data-dependent "
                  "NDRange but read at full extent", Severity.ERROR,
         paper="§4/Fig. 7"),
    Rule("FK404", "host stage blindly overwrites a buffer a kernel stage "
                  "holds a live version of", Severity.WARNING, paper="§6.2"),
    Rule("FK405", "group_weights length cannot match the stage's NDRange",
         Severity.ERROR, paper="§5.1"),
    Rule("FK410", "stage kernel body is not statically analyzable: "
                  "pipeline dataflow rules degraded", Severity.INFO),
    # -- partition-composition rules (FK5xx): cross-stage tile geometry ----
    Rule("FK501", "transposed tile composition: consumer's access tile "
                  "axis differs from the producer's write tile axis",
         Severity.ERROR, paper="§4/Fig. 7"),
    Rule("FK502", "tile rank mismatch: consumer recomposes the producer's "
                  "partition at a different subscript rank",
         Severity.WARNING, paper="§4/Fig. 7"),
    # -- runtime sanitizer rules (FK59x): dynamic dataflow validation ------
    Rule("FK591", "commit by a stage the static dataflow never predicted "
                  "to write the buffer", Severity.ERROR, paper="§4.1"),
    Rule("FK592", "buffer_read served a version produced by a writer the "
                  "static dataflow never predicted", Severity.ERROR,
         paper="§4.1"),
)


def rule(rule_id: str) -> Rule:
    """Look up a rule by ID (raises ``KeyError`` for unknown IDs)."""
    return RULES[rule_id]


@dataclass(frozen=True)
class SourceLocation:
    """Where in the kernel body source a finding anchors."""

    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass(frozen=True)
class Finding:
    """One diagnosed occurrence of a rule."""

    rule_id: str
    severity: Severity
    message: str
    kernel: Optional[str] = None
    arg: Optional[str] = None
    location: Optional[SourceLocation] = None
    hint: Optional[str] = None
    #: pipeline-level attribution (FK4xx/FK5xx): the stage a finding
    #: anchors to and the inter-stage buffer it concerns
    stage: Optional[str] = None
    buffer: Optional[str] = None

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    def render(self) -> str:
        where = []
        if self.kernel:
            where.append(f"kernel {self.kernel!r}")
        if self.stage and self.stage != self.kernel:
            where.append(f"stage {self.stage!r}")
        if self.buffer:
            where.append(f"buffer {self.buffer!r}")
        if self.arg:
            where.append(f"arg {self.arg!r}")
        head = f"{self.rule_id} {self.severity.value}"
        if where:
            head += f" [{', '.join(where)}]"
        if self.location:
            head += f" ({self.location})"
        text = f"{head}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def __str__(self) -> str:
        return self.render()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (the ``lint --json`` output)."""
        return {
            "rule": self.rule_id,
            "title": self.rule.title,
            "severity": self.severity.value,
            "paper": self.rule.paper or None,
            "kernel": self.kernel,
            "stage": self.stage,
            "buffer": self.buffer,
            "arg": self.arg,
            "location": str(self.location) if self.location else None,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """All findings for one kernel (one ``KernelSpec``/version), or for a
    whole pipeline when ``version`` is ``"pipeline"`` (FK4xx/FK5xx)."""

    kernel: str
    version: str = "baseline"
    findings: List[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def fluidic_safe(self) -> bool:
        """Whether the kernel may legally be partitioned at work-group
        granularity across devices (no ERROR finding)."""
        return not self.errors

    def rule_ids(self) -> Tuple[str, ...]:
        return tuple(f.rule_id for f in self.findings)

    def worth_reporting(self, min_severity: Severity = Severity.WARNING) -> List[Finding]:
        return [f for f in self.findings
                if f.severity.rank >= min_severity.rank]

    @property
    def label(self) -> str:
        if self.version == "baseline":
            return self.kernel
        if self.version == "pipeline":
            return f"pipeline:{self.kernel}"
        return f"{self.kernel}@{self.version}"

    def render(self) -> str:
        verdict = "fluidic-safe" if self.fluidic_safe else "NOT fluidic-safe"
        lines = [f"{self.label}: {verdict}, {len(self.findings)} finding(s)"]
        lines += [f"  {f.render()}" for f in self.findings]
        return "\n".join(lines)


class KernelDeclarationError(ValueError):
    """A kernel signature is malformed; carries the typed finding.

    Subclasses ``ValueError`` so existing ``pytest.raises(ValueError)``
    call-sites (and defensive callers) keep working.
    """

    def __init__(self, finding: Finding):
        super().__init__(finding.render())
        self.finding = finding


class LintError(RuntimeError):
    """Raised by the strict runtime gate: the kernel must not launch
    cooperatively (see ``FluidiCLConfig.lint``)."""

    def __init__(self, reports: List[LintReport]):
        unsafe = [r for r in reports if not r.fluidic_safe]
        detail = "\n".join(r.render() for r in unsafe)
        names = ", ".join(r.label for r in unsafe)
        super().__init__(
            f"lint gate (strict): refusing cooperative launch of {names}:\n"
            f"{detail}"
        )
        self.reports = reports
