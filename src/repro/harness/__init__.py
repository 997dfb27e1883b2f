"""Experiment harness: one function per table/figure of the paper.

Each experiment returns an :class:`~repro.harness.report.ExperimentResult`
whose rows mirror the series the paper plots; ``render()`` produces the
ASCII table recorded in EXPERIMENTS.md, and ``python -m repro.harness``
regenerates everything.
"""

from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    fig2_split_sweep,
    fig3_syrk_input_sizes,
    fig13_overall,
    fig14_syrk_inputs,
    fig15_optimizations,
    fig16_socl,
    fig17_chunk_sensitivity,
    fig18_step_sensitivity,
    run_experiment,
    table1_bicg_kernel_times,
    table2_suite,
    table3_corr_online_profiling,
)
from repro.harness.extensions import (
    ablation_buffer_pool,
    ablation_location_tracking,
    ablation_wg_split,
    extended_overall,
    what_if_xeon_phi,
)
from repro.harness.report import ExperimentResult, format_table, geomean
from repro.harness.runner import fluidicl_time, measure_app, socl_time
from repro.harness.timeline import extract_spans, render_gantt

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "ablation_buffer_pool",
    "ablation_location_tracking",
    "ablation_wg_split",
    "extended_overall",
    "extract_spans",
    "render_gantt",
    "what_if_xeon_phi",
    "fig13_overall",
    "fig14_syrk_inputs",
    "fig15_optimizations",
    "fig16_socl",
    "fig17_chunk_sensitivity",
    "fig18_step_sensitivity",
    "fig2_split_sweep",
    "fig3_syrk_input_sizes",
    "fluidicl_time",
    "format_table",
    "geomean",
    "measure_app",
    "run_experiment",
    "socl_time",
    "table1_bicg_kernel_times",
    "table2_suite",
    "table3_corr_online_profiling",
]
