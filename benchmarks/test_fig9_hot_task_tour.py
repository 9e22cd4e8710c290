"""Figure 9 — hot task migration of a single task.

Paper: one bitcnts (~60 W) on the SMT machine, 40 W allowed per physical
processor (20 W per logical CPU).  Roughly every ten seconds the package
thermal sum crosses the limit and the task is migrated:

* never to an SMT sibling on the same package;
* never across the NUMA node boundary — the task tours the packages of
  node 0 "nearly in round robin fashion", because after one full turn
  the first package has cooled down enough.

Setup: ``repro.experiments.hot_task_config`` without throttling; the
thermal time constant is 15 s."""

from __future__ import annotations

from benchmarks.conftest import emit_report
from repro.experiments import experiment_metrics


def node_of(cpu: int) -> int:
    return 0 if cpu % 8 < 4 else 1


def test_fig9_hot_task_tour(capsys):
    metrics = experiment_metrics("fig9")
    emit_report(capsys, metrics)
    hops = metrics["rows"]

    # Shape assertions.
    assert len(hops) >= 10, "task should migrate repeatedly"
    # ~10 s cadence.
    assert 6.0 < metrics["mean_interval_s"] < 18.0
    for hop in hops:
        src, dst = hop["src"], hop["dst"]
        assert abs(src - dst) != 8, "never to the SMT sibling"
        assert node_of(src) == node_of(dst), "never across the node boundary"
    # Round-robin over the four packages of one node: in any window of
    # five consecutive placements at least four distinct packages appear.
    packages = [cpu % 8 for cpu in metrics["visited"]]
    for i in range(len(packages) - 4):
        window = set(packages[i : i + 5])
        assert len(window) >= 3
    # All four packages of the node get visited over the run.
    assert len(set(packages)) == 4
