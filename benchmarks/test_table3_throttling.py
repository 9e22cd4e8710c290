"""Table 3 — CPU throttling percentages under temperature control, and
the §6.2 throughput gains.

Paper: per-CPU thermal models calibrated individually; an artificial
38 degC limit (max observed temperature without control was 45 degC).
Logical CPUs 0/3/4 and their siblings 8/11/12 throttle; the others never
do.  Average throttling 15.2 % -> 10.2 % with energy balancing; the CPUs
with the best thermal properties among the throttling set drop to 0 %.
Throughput +4.7 % (long tasks), +4.9 % (short tasks, where initial
placement is what matters).

Setup here (``repro.experiments.table3_config``): heterogeneous
per-package thermal resistances chosen so the three hot packages (0, 3,
4) exceed 38 degC under a mixed load while the cooler five never do —
mirroring the paper's machine."""

from __future__ import annotations

from benchmarks.conftest import emit_report
from repro.experiments import experiment_metrics


def test_table3_throttling_percentages(capsys):
    metrics = experiment_metrics("table3")
    emit_report(capsys, metrics)
    s = metrics["scalars"]
    rows = metrics["rows"]

    # Shape assertions.
    throttled_cpus = {
        r["cpu"] for r in rows if r["disabled_pct"] > 0.5 or r["enabled_pct"] > 0.5
    }
    # Only the three poorly-cooled packages (logical 0/3/4 + 8/11/12).
    assert throttled_cpus == {0, 3, 4, 8, 11, 12}
    # Energy balancing reduces throttling on every affected CPU.
    for r in rows:
        assert r["enabled_pct"] <= r["disabled_pct"] + 2.0
    # Average drops by roughly the paper's factor (15.2 -> 10.2 is ~0.67x).
    ratio = s["avg_throttle_enabled_pct"] / s["avg_throttle_disabled_pct"]
    assert 0.3 < ratio < 0.9
    # Throughput increases by a few percent.
    assert 0.02 < s["throughput_gain"] < 0.15


def test_table3_short_tasks_placement(capsys):
    """§6.2's second experiment: tasks shorter than a second, where
    initial placement (§4.6) carries the effect (+4.9 % in the paper)."""
    metrics = experiment_metrics("short-tasks")
    emit_report(capsys, metrics)
    s = metrics["scalars"]

    assert s["throughput_gain"] > 0.01
    assert s["avg_throttle_enabled_pct"] < s["avg_throttle_disabled_pct"]
