"""``python -m repro.harness lint`` — the fluidity linter CLI.

Runs the static analyzers (:mod:`repro.analysis`) over the polybench
suite and any ``KernelSpec``-returning factories found in the
``examples/`` directory: every kernel an app launches plus, for each
``PipelineApp``, its whole-pipeline FK4xx/FK5xx report — the same
:func:`~repro.analysis.analyzer.analyze_app` entry the fuzzer's
pre-flight uses.  Every finding prints with its rule ID, severity,
source location and fix hint (rule catalogs: DESIGN.md, "Static kernel
analysis" and "Pipeline dataflow analysis").

Exit status is 1 when any finding of WARNING severity or above is
reported, 0 when the whole target set lints clean — so the CI lint job is
a drift gate: a kernel whose declared intents stop matching its body, or
a kernel or pipeline that stops being fluidic-safe, fails the build
before any run does.

``--known-bad`` instead runs the analyzers' own self-test: every planted
defect in :mod:`repro.analysis.known_bad`, kernel or pipeline, must be
flagged with its expected rule ID (mirroring ``check --known-bad``),
exiting 1 if an analyzer misses or misclassifies one.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import os
from typing import Callable, List, Optional, Tuple

from repro.analysis.analyzer import analyze_app, analyze_kernel
from repro.analysis.diagnostics import LintReport, Severity
from repro.analysis.known_bad import KNOWN_BAD_CASES
from repro.harness.check_cli import name_list
from repro.kernels.dsl import KernelSpec
from repro.polybench.suite import EXTENDED_SUITE, SCALES, make_app

__all__ = ["lint_main"]

DEFAULT_EXAMPLES_DIR = "examples"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness lint",
        description=(
            "Statically analyze work-group kernels for intent drift, "
            "cross-work-group races and abort-check placement, and "
            "pipelines for inter-stage dataflow hazards (see DESIGN.md, "
            "'Static kernel analysis' and 'Pipeline dataflow analysis')."
        ),
    )
    parser.add_argument("--apps", default=EXTENDED_SUITE,
                        type=name_list(EXTENDED_SUITE),
                        help="comma-separated benchmark subset "
                             f"(default: {','.join(EXTENDED_SUITE)})")
    parser.add_argument("--scale", default="test", choices=sorted(SCALES),
                        help="problem scale the kernels are instantiated at "
                             "(default: test)")
    parser.add_argument("--examples", default=DEFAULT_EXAMPLES_DIR,
                        help="directory scanned for KernelSpec-returning "
                             f"factories (default: {DEFAULT_EXAMPLES_DIR}/)")
    parser.add_argument("--no-examples", action="store_true",
                        help="lint only the polybench suite")
    parser.add_argument("--no-abort-in-loops", action="store_true",
                        help="analyze as if FluidiCLConfig.abort_in_loops "
                             "were off (surfaces FK301)")
    parser.add_argument("--no-unroll", action="store_true",
                        help="analyze as if FluidiCLConfig.loop_unroll were "
                             "off (surfaces FK302)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--verbose", action="store_true",
                        help="also print kernels and pipelines with no "
                             "findings")
    parser.add_argument("--known-bad", action="store_true",
                        help="self-test: verify every planted kernel and "
                             "pipeline defect in repro.analysis.known_bad "
                             "is flagged with its expected rule ID")
    return parser


def _example_factories(directory: str) -> List[Tuple[str, Callable[[], KernelSpec]]]:
    """Zero-argument ``KernelSpec``-returning factories in ``directory``.

    Example scripts are plain files, not a package: each candidate module
    is loaded from its path, and every public module-level function whose
    return annotation names ``KernelSpec`` and that takes no required
    parameters is treated as a kernel factory.
    """
    factories: List[Tuple[str, Callable[[], KernelSpec]]] = []
    if not os.path.isdir(directory):
        return factories
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".py"):
            continue
        path = os.path.join(directory, filename)
        with open(path, "r", encoding="utf-8") as fh:
            if "KernelSpec" not in fh.read():
                continue
        module_name = f"_repro_lint_example_{filename[:-3]}"
        spec = importlib.util.spec_from_file_location(module_name, path)
        if spec is None or spec.loader is None:  # pragma: no cover
            continue
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, fn in sorted(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module_name:
                continue
            annotation = fn.__annotations__.get("return")
            returns_spec = (annotation is KernelSpec
                            or getattr(annotation, "__name__", annotation)
                            == "KernelSpec")
            if not returns_spec:
                continue
            params = inspect.signature(fn).parameters.values()
            if any(p.default is inspect.Parameter.empty for p in params):
                continue
            factories.append((f"{filename}:{name}", fn))
    return factories


def _gather_reports(args) -> List[Tuple[str, LintReport]]:
    """Every report of the target set, labelled with where it came from."""
    flags = {"abort_in_loops": not args.no_abort_in_loops,
             "loop_unroll": not args.no_unroll}
    reports: List[Tuple[str, LintReport]] = []
    for app_name in args.apps:
        app = make_app(app_name, scale=args.scale)
        reports.extend((app_name, report)
                       for report in analyze_app(app, **flags))
    if not args.no_examples:
        for label, factory in _example_factories(args.examples):
            reports.append((label, analyze_kernel(factory(), **flags)))
    return reports


def _known_bad_main(as_json: bool) -> int:
    rows = []
    for case in KNOWN_BAD_CASES:
        reported = case.analyze().rule_ids()
        caught = case.expected_rule in reported
        rows.append({"case": case.name, "expected": case.expected_rule,
                     "reported": list(reported), "caught": caught})
        if not as_json:
            status = "caught" if caught else "MISSED"
            print(f"{status:7s} {case.name:26s} expected={case.expected_rule} "
                  f"reported={','.join(reported) or '-'}")
    caught = sum(row["caught"] for row in rows)
    if as_json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{caught} of {len(rows)} known-bad cases flagged with their "
              "expected rule IDs")
    return 0 if caught == len(rows) else 1


def _render_reports(reports: List[Tuple[str, LintReport]],
                    verbose: bool) -> int:
    """Print the text report; returns the number of reportable findings."""
    reportable = 0
    for origin, report in reports:
        findings = report.worth_reporting(Severity.WARNING)
        reportable += len(findings)
        if not findings:
            if verbose:
                print(f"ok    {origin}: {report.label}")
            continue
        verdict = ("fluidic-safe" if report.fluidic_safe
                   else "NOT fluidic-safe")
        print(f"{origin}: {report.label} — {verdict}")
        for finding in findings:
            for line in finding.render().splitlines():
                print(f"  {line}")
    return reportable


def lint_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.known_bad:
        return _known_bad_main(args.as_json)

    reports = _gather_reports(args)
    if args.as_json:
        payload = [{
            "origin": origin,
            "kernel": report.kernel,
            "version": report.version,
            "fluidic_safe": report.fluidic_safe,
            "findings": [f.as_dict() for f in report.findings],
        } for origin, report in reports]
        print(json.dumps(payload, indent=2))
        return 1 if any(
            r.worth_reporting(Severity.WARNING) for _, r in reports) else 0

    reportable = _render_reports(reports, args.verbose)
    pipelines = sum(1 for _, r in reports if r.version == "pipeline")
    unsafe = sum(1 for _, r in reports if not r.fluidic_safe)
    print(f"{len(reports) - pipelines} kernel(s) analyzed, {pipelines} "
          f"pipeline(s): {reportable} finding(s), {unsafe} not fluidic-safe")
    return 1 if reportable else 0
