"""``repro.experiments`` — harness regenerating every table and figure.

The reproduction engine: :func:`run_experiment` is the atomic
train-and-evaluate unit, :mod:`~repro.experiments.runner` executes declared
:class:`RunSpec` grids serially or process-parallel (bit-identical either
way), and :mod:`~repro.experiments.tables` / :mod:`~repro.experiments.figures`
assemble the runs into every paper artifact; ``python -m repro.experiments``
(:mod:`~repro.experiments.cli`) regenerates any set of them from one run of
their grids' union.  ``docs/reproducing.md`` lists the
artifacts and the command; ``docs/architecture.md`` §4 states the engine's
invariants.
"""

from repro.experiments.figures import (
    FigureResult,
    ascii_bar_chart,
    figure3_source_domains,
    figure4_sensitivity,
)
from repro.experiments.harness import RunResult, run_experiment
from repro.experiments.reporting import format_table, save_json, save_table
from repro.experiments.runner import (
    GridReport,
    RunSpec,
    execute_spec,
    resolve_jobs,
    run_grid,
    run_grid_report,
)
from repro.experiments.scales import SCALES, ExperimentScale, get_scale
from repro.experiments.tables import (
    TableResult,
    table1_dataset_statistics,
    table2_domain_shift,
    table3_negative_transfer,
    table4_main_comparison,
    table5_single_source,
    table6_source_count,
    table7_ablation,
    table8_inference_time,
)

__all__ = [
    "ExperimentScale",
    "FigureResult",
    "GridReport",
    "RunResult",
    "RunSpec",
    "SCALES",
    "TableResult",
    "ascii_bar_chart",
    "execute_spec",
    "figure3_source_domains",
    "figure4_sensitivity",
    "format_table",
    "get_scale",
    "resolve_jobs",
    "run_experiment",
    "run_grid",
    "run_grid_report",
    "save_json",
    "save_table",
    "table1_dataset_statistics",
    "table2_domain_shift",
    "table3_negative_transfer",
    "table4_main_comparison",
    "table5_single_source",
    "table6_source_count",
    "table7_ablation",
    "table8_inference_time",
]
