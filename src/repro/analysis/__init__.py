"""Experiment drivers and reporting: one function per paper table/figure.

Each ``fig*``/``table*`` function returns plain data structures (rows of
numbers) that the benchmark harness prints in the paper's layout and the
tests assert shape criteria on.  Formatting helpers render aligned text
tables so benchmark output is readable in a terminal.
"""

from repro.analysis.experiments import (
    Fig5Row,
    Fig6Row,
    Fig7Row,
    HeadlineNumbers,
    ablation_subgroups,
    fig2_rows,
    fig5_rows,
    fig6_rows,
    fig7_rows,
    headline_numbers,
    table1,
)
from repro.analysis.formatting import format_table
from repro.analysis.asciiplot import line_plot
from repro.analysis.chaos import (
    ChaosOutcome,
    run_chaos_suite,
    suite_passed,
    survival_matrix,
)
from repro.analysis.resilience import (
    ResilienceRow,
    checkpoint_bytes,
    format_mtbf_table,
    mtbf_sweep,
    optimal_checkpoint_interval,
    resilience_overhead,
)
from repro.analysis.calibration import (
    FitResult,
    PaperAnchors,
    anchor_error,
    fit_compute_knobs,
)
from repro.analysis.timeline import step_trace, timeline_panel

__all__ = [
    "Fig5Row",
    "Fig6Row",
    "Fig7Row",
    "HeadlineNumbers",
    "ablation_subgroups",
    "fig2_rows",
    "fig5_rows",
    "fig6_rows",
    "fig7_rows",
    "headline_numbers",
    "table1",
    "format_table",
    "line_plot",
    "FitResult",
    "PaperAnchors",
    "anchor_error",
    "fit_compute_knobs",
    "ChaosOutcome",
    "ResilienceRow",
    "checkpoint_bytes",
    "format_mtbf_table",
    "mtbf_sweep",
    "optimal_checkpoint_interval",
    "resilience_overhead",
    "run_chaos_suite",
    "suite_passed",
    "survival_matrix",
    "step_trace",
    "timeline_panel",
]
