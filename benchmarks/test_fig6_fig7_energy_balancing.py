"""Figures 6 and 7 — thermal power of the eight CPUs with energy
balancing disabled vs enabled; migration counts (§6.1).

Paper:
* Fig. 6 (disabled): curves diverge; some CPUs exceed the 50 W line.
* Fig. 7 (enabled): the band stays narrow; all CPUs stay below the
  limit essentially all the time.
* Migrations over 15 minutes: 3.3 -> 32 (SMT off, 18 tasks) and
  9.8 -> 87 (SMT on, 36 tasks) — roughly an order of magnitude more,
  still negligible overhead.

Setup (``repro.experiments.fig6_config``): maximum power 60 W for all
CPUs; each of the six Table 2 programs started three times (six with
SMT); no throttling."""

from __future__ import annotations

from benchmarks.conftest import emit_report
from repro.experiments import experiment_metrics

LIMIT_LINE_W = 50.0


def test_fig6_fig7_energy_balancing_smp(capsys):
    metrics = experiment_metrics("fig6-7")
    emit_report(capsys, metrics)
    s = metrics["scalars"]

    # Shape assertions.
    assert s["peak_power_disabled_w"] > LIMIT_LINE_W + 2.0
    assert s["band_width_enabled_w"] < s["band_width_disabled_w"] / 3
    assert s["peak_power_enabled_w"] < s["peak_power_disabled_w"]
    assert s["peak_power_enabled_w"] < LIMIT_LINE_W + 4.0
    # Migration counts: few without balancing, tens with, ratio >= ~5x.
    base_migs = s["migrations_disabled"]
    energy_migs = s["migrations_enabled"]
    assert base_migs < 15
    assert 20 <= energy_migs <= 150
    assert energy_migs >= 5 * max(base_migs, 1)
    # 18 tasks: on average each task migrated only a few times in 15 min.
    assert energy_migs / 18 < 6


def test_fig7_smt_variant(capsys):
    metrics = experiment_metrics("fig7-smt")
    emit_report(capsys, metrics)
    s = metrics["scalars"]

    base_migs = s["migrations_disabled"]
    energy_migs = s["migrations_enabled"]
    assert base_migs < 40
    assert energy_migs > 2 * max(base_migs, 1)
    assert energy_migs <= 400
    # Energy balancing still keeps the band tight under SMT.
    assert s["band_width_enabled_w"] < s["band_width_disabled_w"]
