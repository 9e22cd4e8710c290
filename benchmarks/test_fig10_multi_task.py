"""Figure 10 — hot task migration: throughput with multiple tasks.

Paper: n bitcnts instances (n = 1..8) on the SMT machine with a 40 W
package budget, temperature control enforcing the limit by hlt (a
halted P4 still draws 13.6 W).  Energy-aware scheduling vs disabled:

* n = 1 and n = 2: +76 % throughput (each task tours its own node);
* gains shrink as tasks multiply (targets are busy/warm more often);
* n = 8: all packages stay hot, no suitable destination exists, gain ~0.
* At a 50 W budget the single-task gain is +27 %.

Setup: ``repro.experiments.hot_task_config`` with package-scope hlt
throttling.
"""

from __future__ import annotations

from benchmarks.conftest import emit_report
from repro.experiments import experiment_metrics


def test_fig10_throughput_vs_task_count(capsys):
    metrics = experiment_metrics("fig10")
    emit_report(capsys, metrics)
    rows = metrics["rows"]
    gains = {r["tasks"]: r["throughput_gain"] for r in rows if r["package_w"] == 40.0}
    gain_50w = next(r["throughput_gain"] for r in rows if r["package_w"] == 50.0)

    # Shape assertions.
    assert gains[1] > 0.5, "single-task gain should be dramatic (paper 76 %)"
    assert abs(gains[1] - gains[2]) < 0.15, "1 and 2 tasks gain alike"
    assert gains[8] < 0.05, "8 tasks: all packages hot, no gain"
    # Monotone-ish decline from 2 tasks on.
    assert gains[2] >= gains[4] >= gains[8] - 0.02
    assert gains[4] > gains[6] - 0.02
    # The 50 W budget shrinks the gain to roughly a third (paper 76->27).
    assert 0.1 < gain_50w < gains[1] * 0.6
