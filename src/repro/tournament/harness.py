"""The cross-policy tournament: every registered policy, head to head.

The paper's machine has no frequency scaling (§2.3), so its policies
answer thermal pressure with migration and ``hlt`` alone; the DVFS
family models the lever the hardware lacked.  The tournament quantifies
that design space: it races every policy in
:data:`~repro.core.policyspec.POLICY_REGISTRY` across the eight pinned
benchmark configurations and emits one deterministic leaderboard,
``BENCH_policies.json``.

Determinism rules: the payload carries no timings, every cell is
keyed by a :class:`~repro.runner.spec.JobSpec` whose content hash is
stable across processes, and an optional differential oracle re-runs
every cell on the scalar reference path and byte-compares the scalar
summaries — so a fast-path regression in any policy regime fails the
tournament, not just ``repro validate``'s pinned-policy set.

Scenario set: each column is derived from one of the eight pinned
configurations in ``repro.scenarios.pinned`` by dropping the axes the
tournament owns (see :func:`_column`).  Because ``mixed-16cpu`` and
``mixed-16cpu-baseline`` differ only by pinned policy and duration,
their tournament columns share a configuration; the duplicate is kept
deliberately — the two columns are computed independently and must
agree exactly, a determinism cross-check inside the payload.  The two
``adv-*`` columns are :mod:`repro.scenarios` generator specs (the
adversarial worst offenders); their cells expand the spec
deterministically at run time.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Sequence

from repro.core.policyspec import (
    PolicySpec,
    canonical_policy_value,
    policy_names,
)
from repro.runner.executor import JobOutcome, run_grid
from repro.runner.spec import JobSpec
from repro.scenarios.pinned import REFERENCE_SCENARIOS, PinnedScenario

SCHEMA = "repro-policies/1"

#: Uniform simulated duration per cell.  Policies race on identical
#: workloads for identical simulated time, so energy totals compare
#: directly; 60 s is long enough for balancing, hot checks, and DVFS
#: governors to reach steady behaviour on every pinned scenario.
DEFAULT_DURATION_S = 60.0

#: Everything in the registry, in registry order.  New policies join
#: the race by registering — the lineup is never hand-maintained.
POLICY_LINEUP: tuple[str, ...] = tuple(policy_names())


#: The tournament's own one-line description of each column.
_COLUMN_DESCRIPTIONS = {
    "mixed-16cpu": "16-CPU SMT, mixed Table-2 workload, no power budget",
    "mixed-16cpu-baseline": (
        "same configuration as mixed-16cpu (the perf set varied only "
        "the pinned policy); doubles as a determinism cross-check"
    ),
    "mixed-8cpu-nosmt": (
        "8-CPU non-SMT, mixed Table-2 workload, no power budget"
    ),
    "throttle-hlt": "16-CPU SMT, 20 W per logical CPU budget",
    "throttle-package": "16-CPU SMT, 40 W per package budget",
    "throttle-dvfs": "16-CPU SMT, 20 W per logical CPU budget, seed 13",
    "adv-pingpong": (
        "Adversarial hot/cool rotation (18 W budget, 4 CPU blocks), "
        "migration ping-pong worst case"
    ),
    "adv-throttle-storm": (
        "Adversarial hot/cool rotation (15 W budget, 4 CPU blocks), "
        "hlt throttle-storm worst case"
    ),
}


def _column(pinned: PinnedScenario) -> PinnedScenario:
    """A pinned configuration minus the axes the tournament owns.

    The policy and the duration are the race's axes.  The
    temperature-control mode is dropped too, so every column runs
    ``hlt`` unless a policy forces its own (``hlt-throttle`` and the
    ``dvfs-*`` family do).
    """
    data = {key: value for key, value in pinned.scenario.items()
            if key not in ("policy", "duration_s")}
    if "throttle" in data:
        data["throttle"] = {key: value
                            for key, value in data["throttle"].items()
                            if key != "mode"}
    return PinnedScenario(pinned.name, _COLUMN_DESCRIPTIONS[pinned.name],
                          data)


TOURNAMENT_SCENARIOS: tuple[PinnedScenario, ...] = tuple(
    _column(pinned) for pinned in REFERENCE_SCENARIOS
)


def cell_spec(
    scenario: PinnedScenario,
    policy: str | PolicySpec,
    duration_s: float,
    fast_path: bool = True,
) -> JobSpec:
    """The job spec for one (column, policy) cell.

    The scalar-reference variant differs only by the scenario
    ``options`` key, so fast and scalar results cache independently.
    """
    data = dict(scenario.scenario, name=scenario.name,
                policy=canonical_policy_value(policy))
    if not fast_path:
        data["options"] = {"fast_path": False}
    return JobSpec(scenario=data, duration_s=duration_s)


def _cell_metrics(outcome: JobOutcome) -> dict[str, Any]:
    summary = outcome.result["summary"]
    return {
        "energy_j": summary["energy"]["total_j"],
        "jobs_per_min": summary["throughput"]["jobs_per_min"],
        "throttle_fraction": summary["throttling"]["average_fraction"],
        "migrations": summary["migrations"]["total"],
        "average_frequency_scale": summary["energy"]["average_frequency_scale"],
        "dvfs_scaled_fraction": summary["energy"]["dvfs_scaled_fraction"],
    }


def _scalars_bytes(outcome: JobOutcome) -> str:
    """The canonical byte form the oracle compares."""
    return json.dumps(outcome.result["scalars"], sort_keys=True)


def _leaderboard(policies: Sequence[str], cells: list[dict]) -> list[dict]:
    """Rank policies by mean energy across the raced scenarios.

    ``wins`` counts scenarios where the policy spent the least energy
    (ties share the win); ranking tie-breaks on policy name so the
    order is total and deterministic.
    """
    by_policy: dict[str, list[dict]] = {p: [] for p in policies}
    for cell in cells:
        by_policy[cell["policy"]].append(cell)
    wins = {p: 0 for p in policies}
    by_scenario: dict[str, list[dict]] = {}
    for cell in cells:
        by_scenario.setdefault(cell["scenario"], []).append(cell)
    for group in by_scenario.values():
        best = min(cell["energy_j"] for cell in group)
        for cell in group:
            if cell["energy_j"] == best:
                wins[cell["policy"]] += 1
    rows = []
    for policy in policies:
        group = by_policy[policy]
        n = len(group)
        rows.append({
            "policy": policy,
            "mean_energy_j": sum(c["energy_j"] for c in group) / n,
            "mean_jobs_per_min": sum(c["jobs_per_min"] for c in group) / n,
            "mean_throttle_fraction": (
                sum(c["throttle_fraction"] for c in group) / n
            ),
            "mean_frequency_scale": (
                sum(c["average_frequency_scale"] for c in group) / n
            ),
            "total_migrations": sum(c["migrations"] for c in group),
            "scenarios": n,
            "wins": wins[policy],
        })
    rows.sort(key=lambda row: (row["mean_energy_j"], row["policy"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


ProgressFn = Callable[[JobOutcome, int, int], None]


def run_tournament(
    duration_s: float = DEFAULT_DURATION_S,
    scenarios: Sequence[PinnedScenario] | None = None,
    policies: Sequence[str | PolicySpec] | None = None,
    workers: int = 1,
    cache=None,
    check_oracle: bool = True,
    progress: ProgressFn | None = None,
    bus=None,
) -> dict:
    """Race every policy on every scenario; return the payload.

    The payload is pure simulation output — no wall clocks — so two
    runs of the same tree produce byte-identical JSON whatever the
    worker count or cache state.  Raises ``RuntimeError`` if any cell
    fails to execute; an oracle mismatch is *reported* (in
    ``payload["oracle"]``); the CLI turns it into exit code 1.
    """
    scenarios = tuple(scenarios) if scenarios else TOURNAMENT_SCENARIOS
    lineup = [
        PolicySpec.coerce(p) for p in (policies or POLICY_LINEUP)
    ]
    pairs = [(scen, pol) for scen in scenarios for pol in lineup]
    specs = [cell_spec(scen, pol, duration_s) for scen, pol in pairs]
    report = run_grid(specs, workers=workers, cache=cache, progress=progress,
                      bus=bus)
    failures = report.failures
    if failures:
        details = "; ".join(
            f"{o.spec.label}: {o.error}" for o in failures[:5]
        )
        raise RuntimeError(
            f"{len(failures)} tournament cell(s) failed: {details}"
        )

    cells = []
    for (scen, pol), outcome in zip(pairs, report.outcomes):
        cell = {"scenario": scen.name, "policy": pol.name}
        cell.update(_cell_metrics(outcome))
        cells.append(cell)

    oracle: dict[str, Any] = {"checked": False}
    if check_oracle:
        scalar_specs = [
            cell_spec(scen, pol, duration_s, fast_path=False)
            for scen, pol in pairs
        ]
        scalar_report = run_grid(
            scalar_specs, workers=workers, cache=cache, progress=progress,
            bus=bus,
        )
        scalar_failures = scalar_report.failures
        if scalar_failures:
            details = "; ".join(
                f"{o.spec.label}: {o.error}" for o in scalar_failures[:5]
            )
            raise RuntimeError(
                f"{len(scalar_failures)} oracle cell(s) failed: {details}"
            )
        mismatches = [
            f"{scen.name}/{pol.name}"
            for (scen, pol), fast, scalar in zip(
                pairs, report.outcomes, scalar_report.outcomes
            )
            if _scalars_bytes(fast) != _scalars_bytes(scalar)
        ]
        oracle = {
            "checked": True,
            "identical": not mismatches,
            "cells_compared": len(pairs),
            "mismatches": mismatches,
        }

    payload = {
        "schema": SCHEMA,
        "duration_s": float(duration_s),
        "policies": [pol.name for pol in lineup],
        "scenarios": [
            {"name": s.name, "description": s.description} for s in scenarios
        ],
        "cells": cells,
        "leaderboard": _leaderboard([pol.name for pol in lineup], cells),
        "oracle": oracle,
    }
    return payload


def write_policies_json(payload: dict, path: str = "BENCH_policies.json") -> str:
    """Write the payload (sorted keys, trailing newline); returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_policy_report(payload: dict) -> str:
    """Human-readable leaderboard plus the per-scenario energy matrix."""
    lines = [
        f"policy tournament: {len(payload['scenarios'])} scenarios x "
        f"{len(payload['policies'])} policies, "
        f"{payload['duration_s']:g} s simulated each",
        "",
        f"{'rank':>4} {'policy':<16} {'energy kJ':>10} {'jobs/min':>9} "
        f"{'thr%':>6} {'freq':>6} {'migr':>6} {'wins':>5}",
    ]
    for row in payload["leaderboard"]:
        lines.append(
            f"{row['rank']:>4} {row['policy']:<16} "
            f"{row['mean_energy_j'] / 1000.0:>10.1f} "
            f"{row['mean_jobs_per_min']:>9.2f} "
            f"{row['mean_throttle_fraction'] * 100.0:>6.1f} "
            f"{row['mean_frequency_scale']:>6.3f} "
            f"{row['total_migrations']:>6d} {row['wins']:>5d}"
        )
    lines.append("")
    lines.append(f"{'scenario':<22} " + " ".join(
        f"{p:>15}" for p in payload["policies"]
    ))
    by_key = {
        (c["scenario"], c["policy"]): c for c in payload["cells"]
    }
    for scen in payload["scenarios"]:
        cells = [
            by_key.get((scen["name"], policy))
            for policy in payload["policies"]
        ]
        lines.append(f"{scen['name']:<22} " + " ".join(
            f"{cell['energy_j'] / 1000.0:>13.1f}kJ" if cell else f"{'-':>15}"
            for cell in cells
        ))
    oracle = payload["oracle"]
    if oracle.get("checked"):
        verdict = ("scalar reference identical"
                   if oracle["identical"]
                   else f"MISMATCH in {', '.join(oracle['mismatches'])}")
        lines.append("")
        lines.append(
            f"oracle: {oracle['cells_compared']} cells re-run on the "
            f"scalar path — {verdict}"
        )
    return "\n".join(lines)
