"""Plain-text rendering for the experiment reports.

The reports print the same rows/series the paper's tables and figures
report; these helpers keep that output aligned and readable in a
terminal and in the committed ``benchmarks/results/*.txt`` files.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_scalar_summaries(summaries, title: str | None = None) -> str:
    """Render seed-replication aggregates as a mean ± CI table.

    ``summaries`` is the output of
    :func:`repro.analysis.stats.summarize_scalars`; formatting is fully
    deterministic, so a sweep's aggregate block is byte-identical for
    any worker count.
    """
    rows = [
        [s.name, s.n, _sig(s.mean), _sig(s.std), f"±{_sig(s.ci95_half)}"]
        for s in summaries
    ]
    return format_table(["metric", "n", "mean", "std", "95% CI"], rows,
                        title=title)


def _sig(value: float) -> str:
    """Fixed significant-digit float rendering for aggregate tables."""
    if value == 0:
        return "0"
    return f"{value:.4g}"


def task_table(result, include_exited: bool = False) -> str:
    """Per-task accounting table for a finished run.

    Columns: pid, program, CPU, jobs done, busy seconds, average power
    (estimated energy / busy time), current profile, migrations, and
    mean wakeup latency.
    """
    tasks = list(result.system.live_tasks())
    if include_exited:
        tasks += result.system.exited_tasks
    tasks.sort(key=lambda t: t.pid)
    rows = []
    for t in tasks:
        avg_power = t.total_energy_j / t.total_busy_s if t.total_busy_s else 0.0
        rows.append(
            [t.pid, t.name, t.cpu, t.jobs_completed, f"{t.total_busy_s:.1f}",
             f"{avg_power:.1f}", f"{t.profile_power_w:.1f}", t.migrations,
             f"{t.mean_wake_latency_ms:.1f}"]
        )
    return format_table(
        ["pid", "program", "cpu", "jobs", "busy [s]", "avg [W]",
         "profile [W]", "migr", "lat [ms]"],
        rows,
        title=f"per-task accounting ({len(tasks)} tasks)",
    )


def chart_columns(values, width: int = 72) -> np.ndarray:
    """The samples of ``values`` that :func:`ascii_chart` plots, one per
    column."""
    values = np.asarray(values, dtype=float)
    return values[np.linspace(0, len(values) - 1, width).astype(int)]


def ascii_chart(
    series: Sequence[tuple[str, np.ndarray]],
    height: int = 12,
    width: int = 72,
    title: str | None = None,
    y_label: str = "",
) -> str:
    """Render one or more equally-sampled series as an ASCII line chart.

    Each series gets a distinct glyph; overlapping points show the glyph
    of the last series drawn.  Good enough to eyeball the Figure 6/7
    curve families in a terminal without any plotting dependency.
    """
    if not series:
        raise ValueError("need at least one series")
    glyphs = "abcdefghijklmnop"
    all_vals = np.concatenate([np.asarray(v, dtype=float) for _, v in series])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for idx, (_, values) in enumerate(series):
        for col, value in enumerate(chart_columns(values, width)):
            frac = (value - lo) / (hi - lo)
            row = height - 1 - int(round(frac * (height - 1)))
            grid[row][col] = glyphs[idx % len(glyphs)]
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        if r == 0:
            label = f"{hi:8.1f} |"
        elif r == height - 1:
            label = f"{lo:8.1f} |"
        else:
            label = "         |"
        lines.append(label + "".join(row))
    lines.append("         +" + "-" * width)
    if y_label:
        lines.append(f"          {y_label}")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}" for i, (name, _) in enumerate(series)
    )
    lines.append("          " + legend)
    return "\n".join(lines)
