"""Analysis helpers: speedup tables, latency breakdowns, report formatting."""

from repro.analysis.report import geomean, speedup_table, format_table
from repro.analysis.tables import run_suite, run_one, SuiteResult
from repro.analysis.export import export_results, load_results_csv
from repro.analysis.figures import bar_chart, stacked_bars, series

__all__ = [
    "geomean", "speedup_table", "format_table",
    "run_suite", "run_one", "SuiteResult",
    "export_results", "load_results_csv",
    "bar_chart", "stacked_bars", "series",
]
