"""The full validation matrix over the pinned scenarios.

``python -m repro validate`` drives this module.  For every reference
scenario it runs:

1. **one lockstep replay per tick path** — the scenario on the fast
   and the scalar path, advanced together by
   :func:`~repro.validate.oracle.replay_pair` with the full invariant
   registry checking every sampled tick on both.  Any recorded
   violation is a breach (the ``clean`` entries), and so is a probe or
   final summary on which the two paths differ (the ``oracle`` entry,
   with a first-divergence report);
2. **the metamorphic check** — SMT-sibling relabeling (skipped on
   non-SMT machines, reported as inapplicable);
3. **the fault matrix** — one fast-path run per committed
   :class:`~repro.validate.faults.FaultPlan` with the invariants
   enabled.  A crash is a breach; violations of invariants *not*
   declared sensitive to the plan's fault kinds are breaches;
   violations of sensitive invariants are the expected detections and
   are reported, not raised.

Then it replays the pinned fleet scenario through
:func:`~repro.validate.oracle.fleet_oracle_check`.

The payload (``schema: repro-validate/2``) is deterministic for a given
code state: scenarios are pinned and every fault plan is seeded, so CI
can diff reports across commits.  Its ``oracle`` and ``fleet`` entries
are both an :class:`~repro.validate.oracle.OracleReport`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import traceback
from typing import Iterable, Sequence

from repro.core.policyspec import canonical_policy_value
from repro.scenario import parse_scenario
from repro.scenarios.pinned import REFERENCE_SCENARIOS, PinnedScenario
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.system import System
from repro.validate.faults import FaultInjector, FaultPlan, load_fault_plans
from repro.validate.invariants import (
    ValidationConfig,
    invariant_by_name,
)
from repro.validate.oracle import (
    OracleReport,
    fleet_oracle_check,
    replay_pair,
    smt_relabel_check,
)

SCHEMA = "repro-validate/2"
GOLDEN_SCHEMA = "repro-golden/1"

#: ``--duration short``: long enough for forks, balancing passes, hot
#: checks, throttling, and job completions to all occur on every pinned
#: scenario; short enough for CI.
SHORT_DURATION_S = 5.0
#: Golden traces are cut at the same length, for the same reason.
GOLDEN_DURATION_S = 5.0


def _violations_json(violations) -> list[dict]:
    return [v.to_dict() for v in violations]


def _oracle_breaches(where: str, report: OracleReport) -> list[str]:
    """One breach line per diverging machine, or one when only the
    final summaries differ."""
    if report.divergences:
        return [f"{where}{d.describe()}" for d in report.divergences]
    if not report.summaries_identical:
        return [f"{where}final summaries differ"]
    return []


def _run_system(
    scenario: PinnedScenario,
    duration_s: float,
    sample_every: int,
    plan: FaultPlan,
) -> tuple[System, FaultInjector]:
    """One fast-path run of ``scenario`` with ``plan`` injected."""
    parsed = parse_scenario(scenario.scenario)
    clock = Clock(parsed.config.tick_ms)
    system = System(
        parsed.config,
        parsed.workload,
        policy=parsed.policy,
        validate=ValidationConfig(sample_every=sample_every),
    )
    injector = FaultInjector(system, plan)
    engine = Engine(clock, system.tracer)
    engine.register(system)
    engine.register(injector)
    engine.run_for(duration_s)
    return system, injector


def _fault_entry(
    scenario: PinnedScenario,
    duration_s: float,
    sample_every: int,
    plan: FaultPlan,
    breaches: list[str],
) -> dict:
    """One fault run; classifies violations and appends any breaches."""
    active_kinds = plan.fault_kinds()
    try:
        system, injector = _run_system(
            scenario, duration_s, sample_every, plan
        )
    except Exception:  # noqa: BLE001 - any crash is precisely the breach
        breaches.append(
            f"{scenario.name}/fault:{plan.name}: crashed instead of "
            f"degrading gracefully"
        )
        return {
            "plan": plan.name,
            "crashed": True,
            "traceback": traceback.format_exc(limit=8),
        }
    expected, unexpected = [], []
    for violation in system.validator.violations:
        sensitive = invariant_by_name(violation.invariant).fault_sensitive
        (expected if sensitive & active_kinds else unexpected).append(violation)
    if unexpected:
        names = sorted({v.invariant for v in unexpected})
        breaches.append(
            f"{scenario.name}/fault:{plan.name}: fault-insensitive "
            f"invariant(s) violated: {', '.join(names)}"
        )
    return {
        "plan": plan.name,
        "crashed": False,
        "injector": injector.summary(),
        "expected_detections": len(expected),
        "expected_invariants": sorted({v.invariant for v in expected}),
        "unexpected_violations": _violations_json(unexpected[:20]),
    }


def run_validation(
    scenarios: Iterable[PinnedScenario] | None = None,
    duration_s: float | None = SHORT_DURATION_S,
    sample_every: int = 1,
    include_faults: bool = True,
    fault_plans: Sequence[FaultPlan] | None = None,
) -> dict:
    """Run the matrix; returns the report payload.

    ``duration_s=None`` uses each scenario's pinned duration (the
    exhaustive mode); the default trims every scenario to
    :data:`SHORT_DURATION_S`.
    """
    chosen: Sequence[PinnedScenario] = (
        tuple(scenarios) if scenarios is not None else REFERENCE_SCENARIOS
    )
    if not chosen:
        raise ValueError("no scenarios to validate")
    plans = (
        tuple(fault_plans) if fault_plans is not None else load_fault_plans()
    ) if include_faults else ()
    breaches: list[str] = []
    scenario_reports = []
    for scenario in chosen:
        parsed = parse_scenario(scenario.scenario)
        duration = duration_s if duration_s is not None else parsed.duration_s
        entry: dict = {"name": scenario.name, "duration_s": duration}

        fast, scalar = (
            System(
                parsed.config,
                parsed.workload,
                policy=parsed.policy,
                fast_path=fast_path,
                validate=ValidationConfig(sample_every=sample_every),
            )
            for fast_path in (True, False)
        )
        n_ticks = Clock(parsed.config.tick_ms).ticks_for_ms(duration * 1000.0)
        oracle = replay_pair(fast, scalar, n_ticks)
        clean = {}
        for label, system in (("fast", fast), ("scalar", scalar)):
            validator = system.validator
            clean[label] = {
                "violations": _violations_json(validator.violations[:20]),
                "n_violations": len(validator.violations),
                "checks_run": dict(sorted(validator.checks_run.items())),
            }
            if validator.violations:
                names = sorted({v.invariant for v in validator.violations})
                breaches.append(
                    f"{scenario.name}/clean-{label}: invariant(s) violated "
                    f"on a clean run: {', '.join(names)}"
                )
        entry["clean"] = clean
        entry["oracle"] = oracle.to_dict()
        breaches.extend(_oracle_breaches(
            f"{scenario.name}/oracle: fast and scalar paths diverged — ",
            oracle,
        ))

        metamorphic = smt_relabel_check(
            parsed.config, parsed.workload, policy=parsed.policy,
            duration_s=duration,
        )
        entry["metamorphic"] = metamorphic.to_dict()
        if metamorphic.applicable and not metamorphic.ok:
            breaches.append(
                f"{scenario.name}/metamorphic: SMT relabeling changed "
                f"aggregate energy ({metamorphic.energy_a_j!r} J vs "
                f"{metamorphic.energy_b_j!r} J)"
            )

        entry["faults"] = [
            _fault_entry(scenario, duration, sample_every, plan, breaches)
            for plan in plans
        ]
        scenario_reports.append(entry)

    # -- fleet engine vs scalar twins, per-member lockstep ------------------
    fleet_report = fleet_oracle_check(
        duration_s=duration_s if duration_s is not None else SHORT_DURATION_S
    )
    breaches.extend(_oracle_breaches("fleet/oracle: ", fleet_report))
    return {
        "schema": SCHEMA,
        "ok": not breaches,
        "breaches": breaches,
        "fault_plans": [p.name for p in plans],
        "scenarios": scenario_reports,
        "fleet": fleet_report.to_dict(),
    }


def write_validation_json(payload: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_validation_report(payload: dict) -> str:
    """Human-readable summary of one validation payload."""
    lines = []
    for entry in payload["scenarios"]:
        clean_n = sum(c["n_violations"] for c in entry["clean"].values())
        oracle_ok = entry["oracle"]["identical"]
        meta = entry["metamorphic"]
        meta_text = (
            "n/a" if not meta["applicable"] else ("ok" if meta["ok"] else "FAILED")
        )
        fault_bits = []
        for fault in entry["faults"]:
            if fault.get("crashed"):
                status = "CRASHED"
            elif fault["unexpected_violations"]:
                status = "BREACH"
            elif fault["expected_detections"]:
                status = f"detected×{fault['expected_detections']}"
            else:
                status = "survived"
            fault_bits.append(f"{fault['plan']}:{status}")
        lines.append(
            f"{entry['name']:<22} {entry['duration_s']:>5.1f}s  "
            f"clean:{'ok' if clean_n == 0 else f'{clean_n} VIOLATIONS'}  "
            f"oracle:{'identical' if oracle_ok else 'DIVERGED'}  "
            f"metamorphic:{meta_text}"
        )
        if fault_bits:
            lines.append(f"{'':<22} faults: {'  '.join(fault_bits)}")
    fleet = payload.get("fleet")
    if fleet is not None:
        lines.append(
            f"{'fleet-oracle':<22} {fleet['n_machines']} machines x "
            f"{fleet['n_ticks']} ticks  "
            f"{'identical' if fleet['identical'] else 'DIVERGED'}"
        )
    if payload["breaches"]:
        lines.append("")
        lines.append(f"{len(payload['breaches'])} breach(es):")
        lines.extend(f"  - {b}" for b in payload["breaches"])
    else:
        lines.append("")
        lines.append(
            f"all {len(payload['scenarios'])} scenarios clean: invariants "
            f"hold, paths agree, faults degrade gracefully"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Golden traces
# ---------------------------------------------------------------------------

def _event_digest(events) -> str:
    """Order-sensitive SHA-256 over the canonical event log encoding."""
    digest = hashlib.sha256()
    for event in events:
        line = (
            f"{event.time_ms} {event.kind.value} {event.cpu} {event.pid} "
            f"{json.dumps(event.detail, sort_keys=True)}\n"
        )
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def golden_trace(
    scenario: PinnedScenario, duration_s: float = GOLDEN_DURATION_S
) -> dict:
    """The canonical short-trace payload for one pinned scenario.

    Byte-identical across replays of the same code state: the summary,
    the sorted counters, and a digest of the full event log.  Regenerate
    the committed copies with::

        PYTHONPATH=src python -m repro validate --write-golden tests/golden
    """
    parsed = parse_scenario(scenario.scenario)
    result = dataclasses.replace(parsed, duration_s=duration_s).run()
    tracer = result.system.tracer
    return {
        "schema": GOLDEN_SCHEMA,
        "scenario": scenario.name,
        "policy": canonical_policy_value(parsed.policy),
        "duration_s": duration_s,
        "summary": result.scalar_summary(),
        "counters": tracer.counters.as_dict(),
        "n_events": len(tracer.events),
        "events_sha256": _event_digest(tracer.events),
    }


def write_golden(
    directory: str | pathlib.Path,
    scenarios: Iterable[PinnedScenario] | None = None,
    duration_s: float = GOLDEN_DURATION_S,
) -> list[str]:
    """Write one golden-trace JSON per scenario; returns the paths."""
    chosen = tuple(scenarios) if scenarios is not None else REFERENCE_SCENARIOS
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for scenario in chosen:
        payload = golden_trace(scenario, duration_s)
        path = out_dir / f"{scenario.name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(str(path))
    return paths
