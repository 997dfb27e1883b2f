"""Static analysis of work-group kernels (the *fluidity linter*).

``repro.analysis`` decides, before any cooperative launch, whether a
kernel is *fluidic-safe* — partitionable at work-group granularity across
devices per the paper's flattened-ID scheme (§4, Fig. 7) — and whether its
declared buffer intents match what the body actually does (§4.1).  See
DESIGN.md ("Static kernel analysis") for the rule catalog.

Import discipline: :mod:`repro.kernels.dsl` raises the typed
:class:`KernelDeclarationError` defined here, so this package's surface
is only the import-light :mod:`repro.analysis.diagnostics`.  The
analyzers import the DSL back; import them from their submodules
(``from repro.analysis.analyzer import analyze_kernel``).
"""

from repro.analysis.diagnostics import (
    RULES,
    Finding,
    KernelDeclarationError,
    LintError,
    LintReport,
    Rule,
    Severity,
    SourceLocation,
    rule,
)

__all__ = [
    "RULES",
    "Finding",
    "KernelDeclarationError",
    "LintError",
    "LintReport",
    "Rule",
    "Severity",
    "SourceLocation",
    "rule",
]
