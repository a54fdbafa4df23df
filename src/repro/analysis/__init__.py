"""Statistics and reporting helpers for experiments and benchmarks."""

from .stats import (
    BootstrapInterval,
    bootstrap_interval,
    mean,
    monotone_decreasing,
    quantile,
    quartiles,
    relative_error,
    stddev,
    variance,
)
from .tables import (
    PaperComparison,
    Table,
    bar_chart,
    comparison_report,
    percent,
)

from .figures import Series, heatmap, line_plot, sparkline

__all__ = [
    "Series",
    "heatmap",
    "line_plot",
    "sparkline",

    "BootstrapInterval",
    "bootstrap_interval",
    "mean",
    "monotone_decreasing",
    "quantile",
    "quartiles",
    "relative_error",
    "stddev",
    "variance",
    "PaperComparison",
    "Table",
    "bar_chart",
    "comparison_report",
    "percent",
]
