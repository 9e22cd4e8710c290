"""The registry is the one definition of each §6/§7 experiment.

The benchmarks under ``benchmarks/`` run each registry entry at its
committed duration and seed and assert the paper's shapes on the
result.  These tests check that contract in seconds: every entry
returns every key its benchmark reads, renders, and survives the JSON
round trip the result cache makes; and no benchmark builds a machine of
its own.
"""

import inspect
import json
import pathlib

import pytest

from repro.experiments import REGISTRY, experiment_metrics, run_experiment

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"

# Each experiment's committed (duration_s, seed): the metrics defaults.
COMMITTED = {
    "fig6-7": (900.0, 7),
    "fig7-smt": (900.0, 8),
    "table3": (600.0, 11),
    "short-tasks": (300.0, 12),
    "fig8": (300.0, 13),
    "fig9": (220.0, 3),
    "fig10": (300.0, 5),
    "hotspot": (180.0, 0),
}

_BALANCING = (
    {"migrations_disabled", "migrations_enabled", "band_width_disabled_w",
     "band_width_enabled_w", "peak_power_disabled_w", "peak_power_enabled_w"},
    {"migrations", "mean_width_w", "peak_thermal_power_w", "thermal_power_w"},
    set(),
)

# What each benchmark and report reads: scalar names, row fields and
# other keys.
BENCHMARK_READS = {
    "fig6-7": _BALANCING,
    "fig7-smt": _BALANCING,
    "table3": ({"avg_throttle_disabled_pct", "avg_throttle_enabled_pct",
                "throughput_gain", "max_temperature_enabled_c"},
               {"cpu", "disabled_pct", "enabled_pct"}, set()),
    "short-tasks": ({"throughput_gain", "avg_throttle_disabled_pct",
                     "avg_throttle_enabled_pct"}, set(), set()),
    "fig8": (set(), {"mix", "throughput_gain"}, set()),
    "fig9": (set(), {"src", "dst"}, {"visited", "mean_interval_s"}),
    "fig10": (set(), {"tasks", "package_w", "throughput_gain"}, set()),
    "hotspot": ({"unit_vs_total", "control_unit_vs_total"},
                {"policy", "swaps", "throttle_fraction", "max_unit_temp_c",
                 "hottest_units"}, set()),
}


def test_registry_covers_the_committed_experiments():
    assert set(REGISTRY) == set(COMMITTED) == set(BENCHMARK_READS)


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_metrics_default_to_the_committed_duration_and_seed(name):
    params = inspect.signature(REGISTRY[name].metrics).parameters
    duration_s, seed = COMMITTED[name]
    assert params["duration_s"].default == duration_s
    assert params["seed"].default == seed
    assert (RESULTS / f"{name}.txt").is_file()


@pytest.mark.parametrize("name", sorted(BENCHMARK_READS))
def test_short_run_has_every_key_its_benchmark_reads(name):
    metrics = experiment_metrics(name, duration_s=3.0)
    scalars, row_fields, extra = BENCHMARK_READS[name]
    assert scalars <= set(metrics["scalars"])
    assert all(isinstance(v, float) for v in metrics["scalars"].values())
    for row in metrics.get("rows", []):
        assert row_fields <= set(row)
    assert extra <= set(metrics)
    # The result cache stores JSON; a cached result renders the same.
    cached = json.loads(json.dumps(metrics))
    assert REGISTRY[name].render(cached) == REGISTRY[name].render(metrics)


def test_short_runs_have_every_point():
    fig10 = experiment_metrics("fig10", duration_s=3.0)["rows"]
    assert [(r["tasks"], r["package_w"]) for r in fig10] == [
        (1, 40.0), (2, 40.0), (3, 40.0), (4, 40.0), (6, 40.0), (8, 40.0),
        (1, 50.0),
    ]
    fig8 = experiment_metrics("fig8", duration_s=3.0)["rows"]
    assert len(fig8) == 10
    assert {"9/0/9", "8/2/8", "7/4/7", "1/16/1", "0/18/0"} <= {
        r["mix"] for r in fig8
    }
    hotspot = experiment_metrics("hotspot", duration_s=3.0)["rows"]
    assert [r["policy"] for r in hotspot] == ["none", "total", "unit"]


@pytest.mark.parametrize("name", ["fig9", "hotspot"])
def test_run_prints_the_committed_result(name):
    expected = (RESULTS / f"{name}.txt").read_text()
    assert run_experiment(name) + "\n" == expected


def test_benchmarks_build_no_machine_setup():
    """Machine setups live in ``repro.experiments`` alone."""
    for path in sorted((REPO / "benchmarks").glob("test_*.py")):
        text = path.read_text()
        assert "SystemConfig(" not in text, path.name
        assert "MachineSpec." not in text, path.name
