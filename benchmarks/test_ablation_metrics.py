"""Ablation A1 — why the balancer needs BOTH §4.3 metrics.

The paper motivates the dual hotter-than condition: "algorithms based on
the processors' power consumptions ... easily lead [to] ping-pong
effects", while "algorithms only based on temperature ... tend to
over-balance".  We run the Figures 6/7 scenario under three balancer
variants and count migrations:

* dual-metric (the paper's design) — few steady-state migrations;
* power-only (no thermal hysteresis)  — more migrations (ping-pong);
* temperature-only (no fast feedback) — many more (over-balancing).

All three keep the thermal band narrow; the cost difference is the
point."""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.analysis.stats import curve_band
from repro.api import run_simulation
from repro.core.energy_balance import EnergyBalanceConfig
from repro.core.policy import EnergyAwareConfig
from repro.experiments import fig6_config
from repro.workloads.generator import mixed_table2_workload

DURATION_S = 600.0

VARIANTS = {
    "dual-metric (paper)": EnergyBalanceConfig(),
    "power-only": EnergyBalanceConfig(use_thermal_condition=False),
    "temperature-only": EnergyBalanceConfig(use_rq_condition=False),
}


def test_ablation_balancer_metrics(capsys):
    config = fig6_config(smt=False, seed=7)
    wl = mixed_table2_workload(3)
    runs = {
        name: run_simulation(
            config, wl, policy="energy",
            policy_config=EnergyAwareConfig(balance=balance),
            duration_s=DURATION_S,
        )
        for name, balance in VARIANTS.items()
    }

    rows = []
    for name, result in runs.items():
        band = curve_band(result, skip_s=100.0)
        rows.append(
            [name, result.migrations(),
             f"{band['mean_width_w']:.1f} W",
             f"{band['peak_thermal_power_w']:.1f} W"]
        )
    emit(
        capsys,
        "ablation_metrics",
        format_table(
            ["balancer variant", "migrations / 10 min", "band width", "peak"],
            rows,
            title="Ablation: the dual hotter-than condition (§4.3/§4.4)",
        ),
    )

    dual = runs["dual-metric (paper)"].migrations()
    power_only = runs["power-only"].migrations()
    temp_only = runs["temperature-only"].migrations()
    # Dropping either condition costs extra migrations.  Power-only
    # ping-pongs on every profile fluctuation (the fast metric reacts
    # instantly, so it reverses its own moves); temperature-only
    # over-balances and re-migrates on every slow thermal crossover.
    assert power_only > dual * 3
    assert temp_only > dual * 1.3
