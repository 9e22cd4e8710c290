"""Sporadic task-model family (MORA / Nelis et al., PAPERS.md).

A sporadic task is defined by a *minimum inter-arrival time* (its
"period" T) and a worst-case execution time (WCET, C): successive jobs
of the task are released at least T apart, and each job needs at most
C of solo CPU time.  This is the real-time counterpart to the open
loops in :mod:`repro.scenarios.arrivals` — instead of a memoryless
rate, each task has a contract, and total utilization sum(C_i/T_i) is
the tunable pressure knob.

Generation works per task set:

* pick ``n_tasks`` periods log-uniform in ``[period_min_s,
  period_max_s]``;
* split the ``utilization`` budget across tasks with the UUniFast
  algorithm (Bini & Buttazzo) — uniform over the simplex, so small and
  large shares both occur — then ``C_i = U_i * T_i``;
* release jobs sporadically: the first release falls uniformly in
  ``[0, min(T_i, horizon_s))``, consecutive releases are separated by
  ``T_i * (1 + jitter)`` with jitter uniform in ``[0, release_slack]``
  (0 = strictly periodic), each release a ``respawn="none"`` fork/exit
  job of length ``C_i``.

Program assignment cycles hot and cool programs through the task set
so the power mix is heterogeneous, which is what makes the energy
policy's placement choices visible.  Instances pin noise to zero and
are fleet-eligible like the other open-loop families.
"""

from __future__ import annotations

import math
import random
from typing import Any, Mapping

from repro.scenarios.registry import (
    ScenarioFamily,
    machine_dict,
    register_family,
    require_int,
    require_number,
    require_programs,
)


def uunifast(
    rng: random.Random, n_tasks: int, utilization: float
) -> list[float]:
    """UUniFast: n_tasks utilizations summing to ``utilization``,
    uniform over the simplex."""
    shares: list[float] = []
    remaining = utilization
    for i in range(n_tasks - 1):
        nxt = remaining * rng.random() ** (1.0 / (n_tasks - 1 - i))
        shares.append(remaining - nxt)
        remaining = nxt
    shares.append(remaining)
    return shares


def _generate_sporadic(
    params: Mapping[str, Any], rng: random.Random
) -> dict[str, Any]:
    fam = "sporadic"
    machine = str(params["machine"])
    n_tasks = require_int(fam, "n_tasks", params["n_tasks"], minimum=1)
    utilization = require_number(fam, "utilization", params["utilization"],
                                 positive=True, maximum=64.0)
    period_min = require_number(fam, "period_min_s", params["period_min_s"],
                                positive=True)
    period_max = require_number(fam, "period_max_s", params["period_max_s"],
                                positive=True)
    if period_max < period_min:
        raise ValueError(
            f"{fam}: period_max_s ({period_max}) must be >= "
            f"period_min_s ({period_min})"
        )
    slack = require_number(fam, "release_slack", params["release_slack"],
                           minimum=0.0, maximum=4.0)
    wcet_min = require_number(fam, "min_wcet_s", params["min_wcet_s"],
                              positive=True)
    horizon = require_number(fam, "horizon_s", params["horizon_s"],
                             positive=True, maximum=3600.0)
    programs = require_programs(fam, "programs", params["programs"])

    shares = uunifast(rng, n_tasks, utilization)
    tasks: list[dict[str, Any]] = []
    for i, share in enumerate(shares):
        log_t = rng.uniform(math.log(period_min), math.log(period_max))
        period = math.exp(log_t)
        wcet = max(wcet_min, share * period)
        program = programs[i % len(programs)]
        # Sporadic releases: at least `period` apart, first release
        # offset uniformly inside one period so tasks do not phase-lock,
        # clipped to the horizon so every task releases at least once.
        t = rng.uniform(0.0, min(period, horizon))
        while t < horizon:
            tasks.append({
                "program": program,
                "arrival_s": round(t, 6),
                "solo_job_s": round(wcet, 6),
                "respawn": "none",
            })
            t += period * (1.0 + rng.uniform(0.0, slack))

    if not tasks:
        raise ValueError(
            f"{fam}: generated no jobs within horizon_s={horizon}"
        )
    tasks.sort(key=lambda task: (task["arrival_s"], task["program"]))
    scenario: dict[str, Any] = {
        "machine": machine_dict(machine),
        "max_power_per_cpu_w": 60.0,
        "counter_jitter_sigma": 0.0,
        "power": {"noise_sigma": 0.0},
        "workload": {
            "name": f"sporadic-n{n_tasks}-u{utilization:g}",
            "tasks": tasks,
        },
        "policy": "energy",
        "duration_s": horizon,
    }
    return scenario


register_family(ScenarioFamily(
    name="sporadic",
    description=(
        "Sporadic real-time task sets (min inter-arrival + WCET, "
        "UUniFast utilization split) released as fork/exit jobs with "
        "bounded release jitter."
    ),
    defaults={
        "machine": "ibm_x445",
        "n_tasks": 12,
        "utilization": 6.0,
        "period_min_s": 2.0,
        "period_max_s": 12.0,
        "release_slack": 0.25,
        "min_wcet_s": 0.3,
        "horizon_s": 30.0,
        "programs": ["bitcnts", "memrw", "aluadd", "pushpop"],
    },
    generate=_generate_sporadic,
    fleet_eligible=True,
))
