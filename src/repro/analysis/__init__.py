"""Measurement and reporting helpers for the benchmark harness."""

from repro.analysis.stats import (
    PhaseChangeStats,
    ThrottleRow,
    curve_band,
    phase_change_stats,
    throttle_table,
)
from repro.analysis.timeseries import (
    band_width,
    fit_exponential_rise,
    resample,
    steady_window,
)
from repro.analysis.export import (
    events_to_csv,
    run_summary,
    run_summary_json,
    series_to_csv,
)
from repro.analysis.report import ascii_chart, format_table, task_table

__all__ = [
    "PhaseChangeStats",
    "ThrottleRow",
    "ascii_chart",
    "band_width",
    "curve_band",
    "events_to_csv",
    "fit_exponential_rise",
    "format_table",
    "phase_change_stats",
    "resample",
    "run_summary",
    "run_summary_json",
    "series_to_csv",
    "steady_window",
    "task_table",
    "throttle_table",
]
