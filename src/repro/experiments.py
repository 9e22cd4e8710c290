"""The paper's §6/§7 experiments, each defined once.

Every experiment is built from parts that live only in this module:

* a **setup** function (``fig6_config``, ``table3_config``,
  ``fig8_config``, ``hot_task_config``) that builds the machine and its
  cooling; the benchmarks outside the registry (ablations, the DVFS
  comparator, the estimator check) import these instead of copying them;
* a **metrics** function (``metrics_fig9`` etc.) whose defaults are the
  committed duration and seed.  It runs the simulation and returns a
  JSON-serialisable dict with a flat ``"scalars"`` mapping (what the
  parallel runner caches and the sweep aggregator folds across seeds)
  plus the detail rows the report needs;
* a **render** function that turns that dict into the plain-text
  report, with the paper's reference values beside ours.

``run_experiment`` composes the two, so ``python -m repro run NAME``
prints ``benchmarks/results/NAME.txt`` byte for byte, while
``repro.runner`` calls ``experiment_metrics`` in a worker process and
gets data instead of text.  Pass ``duration_s`` (and ``seed``) to
override the committed values, for example for a shorter run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


from repro.analysis.report import ascii_chart, chart_columns, format_table
from repro.analysis.stats import curve_band, throttle_table
from repro.api import compare_policies, run_simulation
from repro.config import SystemConfig
from repro.cpu.thermal import ThermalParams
from repro.cpu.throttle import ThrottleConfig
from repro.cpu.topology import MachineSpec
from repro.workloads.generator import (
    homogeneity_sweep,
    mixed_table2_workload,
    short_task_storm,
    single_program_workload,
)

# Per-package thermal resistance (K/W) of the heterogeneous-cooling
# machines.  Table 3: packages 0, 3 and 4 cool poorly.  Figure 8: poor
# (0.32/0.30/0.28), medium (0.25) and good (< 0.21) packages, so
# medium-power tasks have a natural home.
T3_PACKAGE_R = (0.36, 0.17, 0.16, 0.33, 0.31, 0.15, 0.14, 0.13)
F8_PACKAGE_R = (0.32, 0.21, 0.20, 0.30, 0.28, 0.19, 0.25, 0.18)


# -- machine setups -----------------------------------------------------------

def fig6_config(smt: bool, seed: int) -> SystemConfig:
    """The §6.1 machine: no throttling, every CPU limited to 60 W
    (30 W per logical CPU with SMT)."""
    return SystemConfig(
        machine=MachineSpec.ibm_x445(smt=smt),
        max_power_per_cpu_w=30.0 if smt else 60.0,
        seed=seed,
    )


def _cooled_config(resistances, smt: bool, seed: int) -> SystemConfig:
    return SystemConfig(
        machine=MachineSpec.ibm_x445(smt=smt),
        thermal=tuple(
            ThermalParams(r_k_per_w=r, c_j_per_k=20.0 / r) for r in resistances
        ),
        temp_limit_c=38.0,
        throttle=ThrottleConfig(enabled=True),
        seed=seed,
    )


def table3_config(seed: int) -> SystemConfig:
    """The §6.2 machine: SMT on, ``T3_PACKAGE_R`` cooling, throttling
    at 38 degC."""
    return _cooled_config(T3_PACKAGE_R, smt=True, seed=seed)


def fig8_config(seed: int) -> SystemConfig:
    """The §6.3 machine: SMT off, ``F8_PACKAGE_R`` cooling, throttling
    at 38 degC."""
    return _cooled_config(F8_PACKAGE_R, smt=False, seed=seed)


def hot_task_config(seed: int, max_power_per_cpu_w: float = 20.0,
                    throttle_mode: str | None = None) -> SystemConfig:
    """The §6.4 machine: SMT on, 20 W per logical CPU (a 40 W package)
    and a 15 s thermal time constant.

    ``throttle_mode`` (``"hlt"`` or ``"dvfs"``) turns on package-scope
    temperature control; ``None`` runs without it, as Figure 9 does.
    """
    if throttle_mode is None:
        throttle = ThrottleConfig(enabled=False)
    else:
        throttle = ThrottleConfig(enabled=True, scope="package",
                                  mode=throttle_mode)
    return SystemConfig(
        machine=MachineSpec.ibm_x445(smt=True),
        max_power_per_cpu_w=max_power_per_cpu_w,
        thermal=ThermalParams(r_k_per_w=0.30, c_j_per_k=50.0),
        throttle=throttle,
        seed=seed,
    )


def _result(name: str, duration_s: float, seed: int, scalars: dict,
            **detail) -> dict:
    """A structured result: identity, detail (``rows`` etc.), scalars."""
    return {"experiment": name, "duration_s": duration_s, "seed": seed,
            **detail, "scalars": scalars}


def _throttle_pcts(cmp) -> dict:
    """Both runs' average throttling, in percent."""
    return {
        "avg_throttle_disabled_pct": cmp.baseline.average_throttle_fraction() * 100,
        "avg_throttle_enabled_pct": cmp.energy_aware.average_throttle_fraction() * 100,
    }


def _pct(fraction: float) -> str:
    return f"{fraction * 100:+.1f}%"


# -- Figures 6/7 --------------------------------------------------------------

def _balancing(name: str, smt: bool, duration_s: float, seed: int) -> dict:
    """Energy balancing off/on: band width, peak and migrations (§6.1).

    Each row also carries every CPU's thermal-power series, sampled at
    the report chart's columns.
    """
    cmp = compare_policies(fig6_config(smt, seed),
                           mixed_table2_workload(6 if smt else 3),
                           duration_s=duration_s)
    rows = []
    for label, result in (("disabled", cmp.baseline), ("enabled", cmp.energy_aware)):
        band = curve_band(result, skip_s=min(60.0, duration_s / 4))
        rows.append({
            "energy_balancing": label,
            "migrations": result.migrations(),
            "mean_width_w": band["mean_width_w"],
            "peak_thermal_power_w": band["peak_thermal_power_w"],
            "thermal_power_w": {
                s.name.removeprefix("thermal_power."):
                    [float(v) for v in chart_columns(s.values)]
                for s in result.all_thermal_power_series()
            },
        })
    return _result(name, duration_s, seed, {
        "migrations_disabled": float(rows[0]["migrations"]),
        "migrations_enabled": float(rows[1]["migrations"]),
        "band_width_disabled_w": rows[0]["mean_width_w"],
        "band_width_enabled_w": rows[1]["mean_width_w"],
        "peak_power_disabled_w": rows[0]["peak_thermal_power_w"],
        "peak_power_enabled_w": rows[1]["peak_thermal_power_w"],
    }, rows=rows)


def metrics_fig6_fig7(duration_s: float = 900.0, seed: int = 7) -> dict:
    """Figures 6/7: SMT off, 18 tasks, the paper's 15 minutes."""
    return _balancing("fig6-7", False, duration_s, seed)


def metrics_fig7_smt(duration_s: float = 900.0, seed: int = 8) -> dict:
    """§6.1 with SMT on: 16 logical CPUs, 36 tasks."""
    return _balancing("fig7-smt", True, duration_s, seed)


def _balancing_summary(metrics: dict, setup: str, paper: tuple) -> str:
    """The off/on summary table; ``paper`` holds the paper's off/on cells
    for the migration, band-width and peak rows."""
    off, on = metrics["rows"]
    ours = [
        ("migrations", off["migrations"], on["migrations"]),
        ("mean band width [W]", f"{off['mean_width_w']:.1f}",
         f"{on['mean_width_w']:.1f}"),
        ("peak thermal power [W]", f"{off['peak_thermal_power_w']:.1f}",
         f"{on['peak_thermal_power_w']:.1f}"),
    ]
    return format_table(
        ["metric", "balancing off", "balancing on", "paper off", "paper on"],
        [[*row, *cells] for row, cells in zip(ours, paper)],
        title=(f"Figures 6/7 summary ({metrics['duration_s']:.0f}s, {setup}; "
               "paper: per 15 min)"),
    )


def render_fig6_fig7(metrics: dict) -> str:
    sections = []
    for fig, row in zip(("Figure 6", "Figure 7"), metrics["rows"]):
        sections.append(ascii_chart(
            list(row["thermal_power_w"].items()),
            height=12,
            title=(f"{fig}: thermal power of the 8 CPUs, energy balancing "
                   f"{row['energy_balancing']} (band mean "
                   f"{row['mean_width_w']:.1f} W, peak "
                   f"{row['peak_thermal_power_w']:.1f} W)"),
            y_label="time ->",
        ))
    sections.append(_balancing_summary(
        metrics, "SMT disabled, 18 tasks",
        (("3.3", "32"), ("(wide)", "(narrow)"), ("> 50", "<= ~50")),
    ))
    return "\n\n".join(sections)


def render_fig7_smt(metrics: dict) -> str:
    return _balancing_summary(metrics, "SMT enabled, 36 tasks",
                              (("9.8", "87"), ("-", "-"), ("-", "-")))


# -- Table 3 ------------------------------------------------------------------

# Table 3 of the paper: logical CPU -> (throttling off, on) in percent.
PAPER_ROWS = {0: (51.5, 35.1), 3: (54.1, 39.7), 4: (10.8, 0.0),
              8: (61.1, 35.7), 11: (54.7, 51.9), 12: (11.0, 0.0)}


def metrics_table3(duration_s: float = 600.0, seed: int = 11) -> dict:
    """Throttling percentages and throughput under a 38 degC limit."""
    cmp = compare_policies(table3_config(seed), mixed_table2_workload(6),
                           duration_s=duration_s)
    rows = [
        {"cpu": row.cpu, "disabled_pct": row.disabled_pct,
         "enabled_pct": row.enabled_pct}
        for row in throttle_table(cmp.baseline, cmp.energy_aware)
    ]
    return _result("table3", duration_s, seed, {
        **_throttle_pcts(cmp),
        "throughput_gain": cmp.throughput_gain,
        "max_temperature_enabled_c": cmp.energy_aware.max_temperature_c,
    }, rows=rows)


def render_table3(metrics: dict) -> str:
    rows = []
    for r in metrics["rows"]:
        paper = PAPER_ROWS.get(r["cpu"], ("-", "-"))
        rows.append([r["cpu"], f"{r['disabled_pct']:.1f}%",
                     f"{r['enabled_pct']:.1f}%", f"{paper[0]}%", f"{paper[1]}%"])
    scalars = metrics["scalars"]
    rows.append(
        ["average (all 16)",
         f"{scalars['avg_throttle_disabled_pct']:.1f}%",
         f"{scalars['avg_throttle_enabled_pct']:.1f}%", "15.2%", "10.2%"]
    )
    table = format_table(
        ["logical CPU", "balancing off", "balancing on", "paper off", "paper on"],
        rows,
        title=(f"Table 3: CPU throttling percentage "
               f"({metrics['duration_s']:.0f}s, 38 degC limit)"),
    )
    return (
        f"{table}\n\n"
        f"throughput increase: {_pct(scalars['throughput_gain'])}"
        "  (paper: +4.7%)\n"
        f"max temperature: {scalars['max_temperature_enabled_c']:.1f} degC"
        "  (paper: limit 38 degC, uncontrolled max 45 degC)"
    )


# -- short tasks --------------------------------------------------------------

def metrics_short_tasks(duration_s: float = 300.0, seed: int = 12) -> dict:
    """§6.2's short-task workload: placement-driven gain."""
    cmp = compare_policies(table3_config(seed),
                           short_task_storm(total_slots=32, job_s=0.7),
                           duration_s=duration_s)
    return _result("short-tasks", duration_s, seed, {
        "baseline_jobs": cmp.baseline.fractional_jobs(),
        "energy_aware_jobs": cmp.energy_aware.fractional_jobs(),
        "throughput_gain": cmp.throughput_gain,
        **_throttle_pcts(cmp),
    })


def render_short_tasks(metrics: dict) -> str:
    s = metrics["scalars"]
    return format_table(
        ["metric", "balancing off", "balancing on"],
        [
            ["jobs finished", f"{s['baseline_jobs']:.0f}",
             f"{s['energy_aware_jobs']:.0f}"],
            ["avg throttling", f"{s['avg_throttle_disabled_pct']:.1f}%",
             f"{s['avg_throttle_enabled_pct']:.1f}%"],
            ["throughput gain", "-",
             f"{_pct(s['throughput_gain'])} (paper: +4.9%)"],
        ],
        title=(f"Short-task workload ({metrics['duration_s']:.0f}s): "
               "initial placement drives the gain"),
    )


# -- Figure 8 -----------------------------------------------------------------

def metrics_fig8(duration_s: float = 300.0, seed: int = 13) -> dict:
    """Throughput gain vs workload homogeneity."""
    config = fig8_config(seed)
    rows = []
    scalars = {}
    for workload in homogeneity_sweep(18):
        cmp = compare_policies(config, workload, duration_s=duration_s)
        rows.append({"mix": workload.name, "throughput_gain": cmp.throughput_gain})
        scalars[f"gain[{workload.name}]"] = cmp.throughput_gain
    return _result("fig8", duration_s, seed, scalars, rows=rows)


def render_fig8(metrics: dict) -> str:
    rows = metrics["rows"]
    table = format_table(
        ["scenario (#memrw/#pushpop/#bitcnts)", "throughput increase"],
        [[r["mix"], _pct(r["throughput_gain"])] for r in rows],
        title=(f"Figure 8: dependence of throughput on the workload "
               f"({metrics['duration_s']:.0f}s per scenario)"),
    )
    chart = ascii_chart(
        [("gain [%]", [r["throughput_gain"] * 100 for r in rows])], height=10,
        title="Figure 8 (paper peak: 12.3% at 8/2/8; ~0% at 0/18/0)",
        y_label="9/0/9  ->  0/18/0",
    )
    return f"{table}\n\n{chart}"


# -- Figure 9 -----------------------------------------------------------------

def metrics_fig9(duration_s: float = 220.0, seed: int = 3) -> dict:
    """The single hot task's tour."""
    result = run_simulation(
        hot_task_config(seed), single_program_workload("bitcnts", 1),
        policy="energy", duration_s=duration_s,
    )
    rows = [
        {"time_s": e.time_ms / 1000, "src": e.detail["src"], "dst": e.detail["dst"]}
        for e in result.migration_events()
    ]
    visited = [rows[0]["src"]] + [r["dst"] for r in rows] if rows else []
    mean_interval_s = (
        (rows[-1]["time_s"] - rows[0]["time_s"]) / (len(rows) - 1)
        if len(rows) > 1 else None
    )
    return _result("fig9", duration_s, seed, {
        "migrations": float(len(rows)),
        "fractional_jobs": result.fractional_jobs(),
        "average_throttle_fraction": result.average_throttle_fraction(),
    }, rows=rows, visited=visited, mean_interval_s=mean_interval_s)


def render_fig9(metrics: dict) -> str:
    rows = metrics["rows"]
    table = format_table(
        ["time", "from CPU", "to CPU"],
        [[f"{r['time_s']:.1f}s", r["src"], r["dst"]] for r in rows],
        title=(f"Figure 9 ({metrics['duration_s']:.0f}s, one bitcnts, "
               "40 W/package): CPU on which the task runs"),
    )
    interval = metrics["mean_interval_s"]
    interval_text = "-" if interval is None else f"{interval:.1f}s"
    return (
        f"{table}\n\nmigrations: {len(rows)}; interval {interval_text} mean "
        f"(paper: ~10 s); CPUs visited: {metrics['visited']}"
    )


# -- Figure 10 ----------------------------------------------------------------

# Figure 10's points: (bitcnts tasks, package budget in watts).
FIG10_POINTS = ((1, 40.0), (2, 40.0), (3, 40.0), (4, 40.0), (6, 40.0),
                (8, 40.0), (1, 50.0))
FIG10_PAPER = {(1, 40.0): "+76%", (2, 40.0): "+76%", (8, 40.0): "+0%",
               (1, 50.0): "+27%"}


def metrics_fig10(duration_s: float = 300.0, seed: int = 5) -> dict:
    """Hot-task-migration gain vs number of tasks, at 40 W and 50 W
    per package."""
    rows = []
    scalars = {}
    for n, package_w in FIG10_POINTS:
        # Two logical CPUs share each package's budget.
        config = hot_task_config(seed, max_power_per_cpu_w=package_w / 2,
                                 throttle_mode="hlt")
        cmp = compare_policies(config, single_program_workload("bitcnts", n),
                               duration_s=duration_s)
        rows.append({"tasks": n, "package_w": package_w,
                     "throughput_gain": cmp.throughput_gain})
        suffix = "" if package_w == 40.0 else f" @ {package_w:.0f} W"
        scalars[f"gain[{n} tasks{suffix}]"] = cmp.throughput_gain
    return _result("fig10", duration_s, seed, scalars, rows=rows)


def render_fig10(metrics: dict) -> str:
    rows = []
    for r in metrics["rows"]:
        label = (r["tasks"] if r["package_w"] == 40.0
                 else f"{r['tasks']} task @ {r['package_w']:.0f} W")
        rows.append([label, _pct(r["throughput_gain"]),
                     FIG10_PAPER.get((r["tasks"], r["package_w"]), "-")])
    table = format_table(
        ["tasks", "throughput increase (ours)", "paper"], rows,
        title=(f"Figure 10: hot task migration, 40 W package limit "
               f"({metrics['duration_s']:.0f}s per point)"),
    )
    chart = ascii_chart(
        [("gain [%]", [r["throughput_gain"] * 100 for r in metrics["rows"]
                       if r["package_w"] == 40.0])],
        height=10,
        title="Figure 10 shape: high plateau at 1-2 tasks, ~0 at 8",
        y_label="1 ... 8 tasks",
    )
    return f"{table}\n\n{chart}"


# -- hotspot extension --------------------------------------------------------

def metrics_hotspot(duration_s: float = 180.0, seed: int = 0) -> dict:
    """The §7 functional-unit extension.  The §7 runner draws no random
    numbers, so every ``seed`` gives the same result."""
    from repro.hotspot.experiment import (
        HotspotExperimentConfig,
        run_hotspot_experiment,
    )
    from repro.hotspot.units import FunctionalUnit

    stacked = HotspotExperimentConfig(duration_s=duration_s)
    results = {
        policy: run_hotspot_experiment(stacked, policy)
        for policy in ("none", "total", "unit")
    }
    homogeneous = HotspotExperimentConfig(tasks="iiii", duration_s=duration_s)
    control = {
        policy: run_hotspot_experiment(homogeneous, policy)
        for policy in ("total", "unit")
    }
    rows = []
    scalars = {}
    for policy, result in results.items():
        gain = result.throughput_vs(results["none"])
        rows.append(
            {
                "policy": policy,
                "swaps": result.swaps,
                "throttle_fraction": result.throttle_fraction,
                "max_unit_temp_c": result.max_unit_temp_c,
                "throughput_vs_none": gain,
                "hottest_units": [FunctionalUnit(u).name
                                  for u in result.hottest_unit_by_cpu],
            }
        )
        scalars[f"throttle_fraction[{policy}]"] = result.throttle_fraction
        scalars[f"throughput_vs_none[{policy}]"] = gain
    scalars["unit_vs_total"] = results["unit"].throughput_vs(results["total"])
    scalars["control_unit_vs_total"] = control["unit"].throughput_vs(
        control["total"])
    return _result("hotspot", duration_s, seed, scalars, rows=rows)


def render_hotspot(metrics: dict) -> str:
    rows = [
        [r["policy"], r["swaps"], f"{r['throttle_fraction'] * 100:.1f}%",
         f"{r['max_unit_temp_c']:.1f} C", _pct(r["throughput_vs_none"]),
         ", ".join(r["hottest_units"])]
        for r in metrics["rows"]
    ]
    table = format_table(
        ["balancer", "swaps", "unit throttling", "max unit temp",
         "throughput vs none", "hottest unit per CPU"],
        rows,
        title=(f"Extension (§7, {metrics['duration_s']:.0f}s): 2x intfire + "
               "2x fpfire, all 50 W, unit limit 56 degC"),
    )
    control = metrics["scalars"]["control_unit_vs_total"]
    return (
        f"{table}\n\nhomogeneous control (4x intfire): unit-aware gains "
        f"{control * 100:+.2f}% (nothing to balance)"
    )


# -- registry -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ExperimentInfo:
    """Registry entry: description and structured entrypoints.

    ``metrics`` takes ``(duration_s=..., seed=...)``, both defaulting to
    the committed values, and returns the structured result dict;
    ``render`` turns that dict back into the report text.  ``metrics``
    is what the parallel runner invokes in worker processes — it must
    stay a module-level (picklable-by-name) function.
    """

    name: str
    description: str
    metrics: Callable[..., dict]
    render: Callable[[dict], str]


REGISTRY: dict[str, ExperimentInfo] = {
    info.name: info
    for info in (
        ExperimentInfo("fig6-7", "energy balancing band + migrations (§6.1)",
                       metrics_fig6_fig7, render_fig6_fig7),
        ExperimentInfo("fig7-smt", "energy balancing migrations with SMT (§6.1)",
                       metrics_fig7_smt, render_fig7_smt),
        ExperimentInfo("table3", "throttling percentages + throughput (§6.2)",
                       metrics_table3, render_table3),
        ExperimentInfo("short-tasks", "placement-driven short-task gain (§6.2)",
                       metrics_short_tasks, render_short_tasks),
        ExperimentInfo("fig8", "gain vs workload homogeneity (§6.3)",
                       metrics_fig8, render_fig8),
        ExperimentInfo("fig9", "single hot task tour (§6.4)",
                       metrics_fig9, render_fig9),
        ExperimentInfo("fig10", "hot-task gain vs task count (§6.4)",
                       metrics_fig10, render_fig10),
        ExperimentInfo("hotspot", "functional-unit extension (§7)",
                       metrics_hotspot, render_hotspot),
    )
}


def _lookup(name: str) -> ExperimentInfo:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(REGISTRY)}"
        ) from None


def _kwargs(duration_s: float | None, seed: int | None) -> dict:
    kwargs = {}
    if duration_s is not None:
        kwargs["duration_s"] = duration_s
    if seed is not None:
        kwargs["seed"] = seed
    return kwargs


def run_experiment(name: str, duration_s: float | None = None,
                   seed: int | None = None) -> str:
    """Run a registered experiment by name; returns the report text."""
    return _lookup(name).render(experiment_metrics(name, duration_s, seed))


def experiment_metrics(name: str, duration_s: float | None = None,
                       seed: int | None = None) -> dict:
    """Run a registered experiment by name; returns the structured result.

    The dict always carries ``experiment``, ``duration_s``, ``seed``,
    and a flat float-valued ``scalars`` mapping; table-like experiments
    add ``rows``.  ``REGISTRY[name].render`` reproduces the text report
    from it.
    """
    return _lookup(name).metrics(**_kwargs(duration_s, seed))
