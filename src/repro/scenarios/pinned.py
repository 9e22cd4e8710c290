"""Pinned reference scenarios: the one table every oracle reads.

Each entry is a :func:`repro.scenario.parse_scenario` dict fixing
machine, workload, policy, seed, and simulated duration, so successive
runs do the same work and their outputs are bitwise reproducible.  The
set deliberately covers the distinct tick-loop regimes: SMT and non-SMT
topologies, both policies, ``hlt`` and DVFS throttling, and
per-logical-CPU versus per-package power budgets — a fast-path
regression in any regime fails ``repro validate``'s per-tick oracle.
The validation matrix, the golden traces, the policy tournament, and
the ``trace``/``explain`` commands all read this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence


@dataclass(frozen=True, slots=True)
class PinnedScenario:
    """One pinned configuration: its ``parse_scenario`` dict, named."""

    name: str
    description: str
    scenario: Mapping[str, Any]


REFERENCE_SCENARIOS: tuple[PinnedScenario, ...] = (
    PinnedScenario(
        "mixed-16cpu",
        "16-CPU SMT, mixed Table-2 workload, energy policy",
        {"machine": {"preset": "ibm_x445", "smt": True}, "seed": 42,
         "workload": {"builder": "mixed_table2", "copies": 6},
         "policy": "energy", "duration_s": 300.0},
    ),
    PinnedScenario(
        "mixed-16cpu-baseline",
        "16-CPU SMT, mixed Table-2 workload, baseline policy",
        {"machine": {"preset": "ibm_x445", "smt": True}, "seed": 42,
         "workload": {"builder": "mixed_table2", "copies": 6},
         "policy": "baseline", "duration_s": 100.0},
    ),
    PinnedScenario(
        "mixed-8cpu-nosmt",
        "8-CPU non-SMT, mixed Table-2 workload, energy policy",
        {"machine": {"preset": "ibm_x445", "smt": False}, "seed": 7,
         "workload": {"builder": "mixed_table2", "copies": 4},
         "policy": "energy", "duration_s": 100.0},
    ),
    PinnedScenario(
        "throttle-hlt",
        "16-CPU SMT with 20 W/CPU budget, hlt throttling",
        {"machine": {"preset": "ibm_x445", "smt": True}, "seed": 11,
         "workload": {"builder": "mixed_table2", "copies": 6},
         "max_power_per_cpu_w": 20.0,
         "throttle": {"enabled": True, "scope": "logical"},
         "policy": "energy", "duration_s": 100.0},
    ),
    PinnedScenario(
        "throttle-package",
        "16-CPU SMT with 40 W/package budget, hlt throttling",
        {"machine": {"preset": "ibm_x445", "smt": True}, "seed": 11,
         "workload": {"builder": "mixed_table2", "copies": 6},
         "max_power_per_cpu_w": 20.0,
         "throttle": {"enabled": True, "scope": "package"},
         "policy": "energy", "duration_s": 100.0},
    ),
    PinnedScenario(
        "throttle-dvfs",
        "16-CPU SMT with 20 W/CPU budget, DVFS throttling",
        {"machine": {"preset": "ibm_x445", "smt": True}, "seed": 13,
         "workload": {"builder": "mixed_table2", "copies": 6},
         "max_power_per_cpu_w": 20.0,
         "throttle": {"enabled": True, "scope": "logical", "mode": "dvfs"},
         "policy": "energy", "duration_s": 100.0},
    ),
    # The two worst offenders found by ``tools/find_adversarial.py``
    # (seeded search over the thermal-adversarial family, ranked by
    # migrations/s x throttle fraction).  Both exceed every static
    # Table-2 mix above on migrations/s AND throttle fraction at 60 s —
    # asserted by ``tests/test_scenarios_adversarial.py``.  The dicts
    # keep the unexpanded generator form, so job specs built from them
    # hash the spec, not the generated task list.
    PinnedScenario(
        "adv-pingpong",
        "Adversarial hot/cool rotation (18 W budget, 2 s dwell, "
        "4 CPU blocks) maximizing migration ping-pong",
        {"generator": {
            "family": "thermal-adversarial", "seed": 1,
            "params": {"budget_w": 18.0, "phase_scale": 0.1, "duty": 0.9,
                       "hot_jobs": 10, "cool_fill": 20, "rotate_groups": 4,
                       "jitter": 0.0, "horizon_s": 60.0}},
         "policy": "energy", "duration_s": 60.0},
    ),
    PinnedScenario(
        "adv-throttle-storm",
        "Adversarial hot/cool rotation (15 W budget, 2.4 s dwell, "
        "4 CPU blocks) maximizing hlt throttle storms",
        {"generator": {
            "family": "thermal-adversarial", "seed": 1,
            "params": {"budget_w": 15.0, "phase_scale": 0.12, "duty": 0.9,
                       "hot_jobs": 10, "cool_fill": 20, "rotate_groups": 4,
                       "jitter": 0.0, "horizon_s": 60.0}},
         "policy": "energy", "duration_s": 60.0},
    ),
)

#: The pinned fleet configuration.  Member *s* is
#: ``dict(FLEET_SCENARIO.scenario, seed=s)``; ``repro validate`` runs
#: eight members on one :class:`~repro.fleet.FleetEngine` in lockstep
#: with scalar twins.  The configuration is fleet-eligible by
#: construction — noise sigmas pinned to zero, no throttling — and uses
#: slow housekeeping cadences (long timeslices and balance intervals) so
#: the per-tick work is dominated by execute/thermal, the phases the
#: fleet engine vectorizes across the machine axis.
FLEET_SCENARIO = PinnedScenario(
    "fleet-steady-64",
    "64 x 16-CPU SMT machines, steady 16-task mix, energy policy, "
    "seeds 1..64, one vectorized FleetEngine",
    {"power": {"noise_sigma": 0.0}, "counter_jitter_sigma": 0.0,
     "max_power_per_cpu_w": 60.0, "timeslice_ms": 2000,
     "balance_interval_ms": 4800, "idle_balance_interval_ms": 50,
     "hot_check_interval_ms": 2000, "sample_interval_s": 5.0,
     "workload": {"builder": "steady_mix", "copies": 4},
     "policy": "energy", "duration_s": 60.0},
)


def scenario_by_name(
    name: str, scenarios: Sequence[PinnedScenario] = REFERENCE_SCENARIOS
) -> PinnedScenario:
    """Look up a pinned scenario (by default in the reference table);
    raises ``ValueError`` with the valid names otherwise."""
    for scenario in scenarios:
        if scenario.name == name:
            return scenario
    valid = ", ".join(s.name for s in scenarios)
    raise ValueError(f"unknown scenario {name!r}; expected one of {valid}")
