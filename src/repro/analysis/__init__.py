"""Static analysis of work-group kernels (the *fluidity linter*).

``repro.analysis`` decides, before any cooperative launch, whether a
kernel is *fluidic-safe* — partitionable at work-group granularity across
devices per the paper's flattened-ID scheme (§4, Fig. 7) — and whether its
declared buffer intents match what the body actually does (§4.1).  See
DESIGN.md ("Static kernel analysis") for the rule catalog.

Import discipline: :mod:`repro.kernels.dsl` raises the typed
:class:`KernelDeclarationError` defined here, so this package's eager
surface is only the import-light :mod:`repro.analysis.diagnostics`.
The analyzer itself (which imports the DSL back) is exposed lazily via
PEP 562 so ``from repro.analysis import analyze_kernel`` still works.
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
    # diagnostics (eager)
    "RULES",
    "Finding",
    "KernelDeclarationError",
    "LintError",
    "LintReport",
    "Rule",
    "Severity",
    "SourceLocation",
    "rule",
    # analyzer + fixtures (lazy)
    "LONG_LOOP_ITERS",
    "analyze_kernel",
    "analyze_app",
    "extract_facts",
    "KernelFacts",
    "KNOWN_BAD_CASES",
    "KnownBadCase",
    # pipeline analysis + sanitizer (lazy; imports the pipeline DSL back)
    "HOST_PRODUCER",
    "analyze_pipeline",
    "predicted_writers",
    "PipelineFacts",
    "StageFacts",
    "flatten_pipeline",
    "PipelineSanitizer",
    "PipelineSanitizerError",
    "SanitizerViolation",
]

_LAZY = {
    "LONG_LOOP_ITERS": "repro.analysis.analyzer",
    "analyze_kernel": "repro.analysis.analyzer",
    "analyze_app": "repro.analysis.analyzer",
    "extract_facts": "repro.analysis.facts",
    "KernelFacts": "repro.analysis.facts",
    "KNOWN_BAD_CASES": "repro.analysis.known_bad",
    "KnownBadCase": "repro.analysis.known_bad",
    "HOST_PRODUCER": "repro.analysis.pipeline_analyzer",
    "analyze_pipeline": "repro.analysis.pipeline_analyzer",
    "predicted_writers": "repro.analysis.pipeline_analyzer",
    "PipelineFacts": "repro.analysis.pipeline_facts",
    "StageFacts": "repro.analysis.pipeline_facts",
    "flatten_pipeline": "repro.analysis.pipeline_facts",
    "PipelineSanitizer": "repro.analysis.pipeline_sanitizer",
    "PipelineSanitizerError": "repro.analysis.pipeline_sanitizer",
    "SanitizerViolation": "repro.analysis.pipeline_sanitizer",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
