"""Extension (§7) — unit-aware scheduling for same-power tasks.

The paper's future-work prediction: with multiple temperatures per chip
and per-unit task characterisation, "energy-aware scheduling would even
be beneficial for tasks having the same power consumption, if they
dissipate energy at different functional units, as is the case with
floating point and integer applications."

We stack two 50 W integer burners on one CPU and two 50 W FP burners on
another (every queue's *total* power identical), with per-unit
throttling at 56 degC, and compare three balancers:

* none — the stacked units overheat and throttle;
* total-power (the paper's published policy) — blind: zero swaps,
  identical to none;
* unit-aware — one swap pairs INT with FP on each CPU, no unit ever
  throttles, throughput rises by >10 %."""

from __future__ import annotations

from benchmarks.conftest import emit_report
from repro.experiments import experiment_metrics
from repro.hotspot.units import FunctionalUnit


def test_extension_unit_aware_scheduling(capsys):
    metrics = experiment_metrics("hotspot")
    emit_report(capsys, metrics)
    stacked = {r["policy"]: r for r in metrics["rows"]}
    s = metrics["scalars"]

    # Shape assertions.
    assert stacked["total"]["swaps"] == 0, "scalar profiles cannot see the imbalance"
    assert stacked["total"]["throttle_fraction"] == stacked["none"]["throttle_fraction"]
    assert stacked["none"]["throttle_fraction"] > 0.05
    assert stacked["unit"]["throttle_fraction"] == 0.0
    assert s["unit_vs_total"] > 0.10
    # The stacked runs overheat a *unit* even though package power is
    # identical across CPUs.
    assert stacked["none"]["max_unit_temp_c"] > 56.0
    assert stacked["unit"]["max_unit_temp_c"] < 56.0
    # Homogeneous corner case: no benefit.
    assert abs(s["control_unit_vs_total"]) < 0.01
    # Sanity: the hot units in the stacked run are INT_ALU and FPU.
    assert set(stacked["none"]["hottest_units"]) == {
        FunctionalUnit.INT_ALU.name, FunctionalUnit.FPU.name,
    }
