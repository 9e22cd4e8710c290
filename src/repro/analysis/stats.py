"""Experiment statistics: the quantities the paper's tables report,
plus the seed-replication aggregates the sweep runner prints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.timeseries import band_width
from repro.api import SimulationResult


@dataclass(frozen=True, slots=True)
class PhaseChangeStats:
    """Table 1 statistics for one program.

    ``max_change`` / ``avg_change`` are relative changes of power between
    successive timeslices: ``|P_i - P_{i-1}| / P_{i-1}``.
    """

    program: str
    max_change: float
    avg_change: float
    n_slices: int


def phase_change_stats(program: str, powers_w: np.ndarray) -> PhaseChangeStats:
    """Compute Table 1 statistics from a sequence of timeslice powers."""
    powers_w = np.asarray(powers_w, dtype=float)
    if len(powers_w) < 2:
        raise ValueError("need at least two timeslices")
    if np.any(powers_w <= 0):
        raise ValueError("timeslice powers must be positive")
    changes = np.abs(np.diff(powers_w)) / powers_w[:-1]
    return PhaseChangeStats(
        program=program,
        max_change=float(changes.max()),
        avg_change=float(changes.mean()),
        n_slices=len(powers_w),
    )


@dataclass(frozen=True, slots=True)
class ThrottleRow:
    """One row of Table 3."""

    cpu: int
    disabled_pct: float
    enabled_pct: float


def throttle_table(
    baseline: SimulationResult, energy: SimulationResult, min_pct: float = 0.5
) -> list[ThrottleRow]:
    """Per-CPU throttling percentages for two runs (Table 3).

    CPUs throttled below ``min_pct`` percent in both runs are omitted,
    as the paper omits CPUs "that had to be throttled in neither run".
    """
    n = baseline.system.n_cpus
    rows = []
    for cpu in range(n):
        off = baseline.throttle_fraction(cpu) * 100.0
        on = energy.throttle_fraction(cpu) * 100.0
        if off >= min_pct or on >= min_pct:
            rows.append(ThrottleRow(cpu=cpu, disabled_pct=off, enabled_pct=on))
    return rows


def curve_band(result: SimulationResult, skip_s: float = 60.0) -> dict[str, float]:
    """Summary of the thermal-power curve family (Figures 6/7).

    Returns mean/max band width plus the overall maximum thermal power
    after the warm-up transient.  Raises ``ValueError`` if the run left
    no trace sample after the warm-up.
    """
    series = result.all_thermal_power_series()
    n = min(len(s) for s in series)
    times = series[0].times[:n]
    mask = times >= skip_s
    if not mask.any():
        raise ValueError(
            f"no thermal-power sample after the {skip_s:g} s warm-up of a "
            f"{result.duration_s:g} s run (the trace samples every "
            f"{result.system.config.sample_interval_s:g} s)"
        )
    widths = band_width(series, skip_s=skip_s)
    peak = max(float(s.values[:n][mask].max()) for s in series)
    return {
        "mean_width_w": float(widths.mean()),
        "max_width_w": float(widths.max()),
        "peak_thermal_power_w": peak,
    }


# -- seed-replication aggregation ---------------------------------------------

# Two-sided 95 % Student-t critical values by degrees of freedom; sweeps
# rarely exceed a few dozen seeds, so a small table plus the asymptote
# avoids a scipy dependency.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("need at least one degree of freedom")
    if df <= len(_T95):
        return _T95[df - 1]
    return 1.960


@dataclass(frozen=True, slots=True)
class ScalarSummary:
    """One metric folded over seed replicates: mean ± 95 % CI."""

    name: str
    n: int
    mean: float
    std: float
    ci95_half: float

    @property
    def lo(self) -> float:
        return self.mean - self.ci95_half

    @property
    def hi(self) -> float:
        return self.mean + self.ci95_half


def summarize_scalars(
    samples: Sequence[Mapping[str, float]],
) -> list[ScalarSummary]:
    """Fold per-seed scalar dicts into mean ± CI summaries.

    Metrics are taken in the first sample's key order (the order the
    experiment's metrics function built them), restricted to keys every
    sample has — so heterogeneous batches only aggregate what is
    actually comparable.  ``std`` is the sample standard deviation
    (ddof=1); the half-width is ``t_{0.975,n-1} * std / sqrt(n)``, zero
    for a single replicate.
    """
    if not samples:
        raise ValueError("need at least one sample")
    shared = [
        key for key in samples[0] if all(key in s for s in samples[1:])
    ]
    out = []
    for key in shared:
        values = np.array([float(s[key]) for s in samples])
        n = len(values)
        mean = float(values.mean())
        if n > 1:
            std = float(values.std(ddof=1))
            ci = t_critical_95(n - 1) * std / n ** 0.5
        else:
            std = 0.0
            ci = 0.0
        out.append(ScalarSummary(name=key, n=n, mean=mean, std=std,
                                 ci95_half=ci))
    return out
