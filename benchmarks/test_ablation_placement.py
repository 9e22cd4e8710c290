"""Ablation A2 — initial task placement (§4.6) on short-task storms.

The paper: for tasks shorter than a second "initial task placement is
most essential", since such tasks can exit before the balancer ever
touches them.  We run a short-task workload that leaves some CPUs idle
(12 slots on 16 logical CPUs) — so queues hold at most one task and the
pull-based balancer has nothing to migrate — with the full policy and
with placement disabled (least-loaded fallback).  Virtually all of the
gain should come from placement."""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.api import PolicyComparison, run_simulation
from repro.core.policy import EnergyAwareConfig
from repro.experiments import table3_config
from repro.workloads.generator import short_task_storm

DURATION_S = 300.0


def test_ablation_initial_placement(capsys):
    config = table3_config(seed=12)
    wl = short_task_storm(total_slots=12, job_s=0.5)
    base = run_simulation(config, wl, policy="baseline", duration_s=DURATION_S)
    full = run_simulation(config, wl, policy="energy", duration_s=DURATION_S)
    no_placement = run_simulation(
        config, wl, policy="energy",
        policy_config=EnergyAwareConfig(enable_placement=False),
        duration_s=DURATION_S,
    )

    full_gain = PolicyComparison(base, full).throughput_gain
    reduced_gain = PolicyComparison(base, no_placement).throughput_gain
    table = format_table(
        ["policy variant", "jobs finished", "gain vs baseline"],
        [
            ["baseline (vanilla)", f"{base.fractional_jobs():.0f}", "-"],
            ["energy-aware, full", f"{full.fractional_jobs():.0f}",
             f"{full_gain * 100:+.1f}%"],
            ["energy-aware, placement off",
             f"{no_placement.fractional_jobs():.0f}",
             f"{reduced_gain * 100:+.1f}%"],
        ],
        title="Ablation: initial placement on a short-task storm (§4.6)",
    )
    emit(capsys, "ablation_placement", table)

    assert full_gain > 0.05
    # Placement carries virtually all of the short-task gain.
    assert reduced_gain < full_gain / 2
