"""Thermal-adversarial workload family and the seeded instance search.

Chrobak et al.'s temperature-aware scheduling bounds (PAPERS.md) show
worst cases come from *engineered alternation*: heat a processor just
long enough that control must act, then go quiet so the action is
wasted, then repeat.  This family builds exactly that against the
paper's §4.2 thermal model and §4.4 balancer.

Two mechanisms compose:

* **Phase length vs the RC constant.**  The package heat sink is a
  first-order RC low-pass with time constant ``tau = R * C`` (~20 s at
  the paper's fitted 0.30 K/W x 66.7 J/K).  A hot phase much shorter
  than ``tau`` never trips the limit; much longer parks the system in
  steady throttling any policy handles the same way.  The adversary
  dwells for ``phase_scale * tau`` under a tight per-CPU budget with
  hlt throttling — long enough to bite, short enough that control
  never amortizes.

* **Rotating affinity.**  The §4.4 balancer's dual hotter-than
  condition (slow thermal + fast runqueue ratio, both with margins) is
  designed to damp ping-pong under *uniform* pressure, so waves are
  pinned (``cpus_allowed``) to one of ``rotate_groups`` contiguous CPU
  blocks, advancing each cycle.  The pinned hot population heats one
  block while the others cool, reversing every cycle; the unpinned
  cool fillers are what the balancer can move, and it sloshes them
  away from each wave and back again — sustained migration ping-pong
  on top of the periodic throttle storms.  Each wave's jobs exit
  (``respawn="none"``) and the next wave forks fresh ones, so
  placement decisions are never amortizable either.

Because instances enable hlt throttling they are **not** fleet
eligible (:func:`repro.fleet.check_fleet_supported` rejects throttle
scenarios); sweeps fall back to the scalar/pool path automatically.

:func:`adversarial_search` is the seeded helper from the issue: sample
``n_candidates`` parameter perturbations from one RNG, run each
instance briefly, and rank by observed migrations/s x throttle
fraction.  ``tools/find_adversarial.py`` wraps it on the command line;
the two worst offenders it found are pinned in ``repro.scenarios.pinned``
and the tournament matrix with golden traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping

from repro.cpu.thermal import ThermalParams
from repro.scenarios.registry import (
    GeneratorSpec,
    ScenarioFamily,
    machine_dict,
    machine_n_cpus,
    register_family,
    require_int,
    require_number,
)
from repro.workloads.programs import PROGRAMS

#: The §4.2 package time constant the phase lengths are tuned against.
TAU_S: float = ThermalParams().r_k_per_w * ThermalParams().c_j_per_k


def _generate_thermal_adversarial(
    params: Mapping[str, Any], rng: random.Random
) -> dict[str, Any]:
    fam = "thermal-adversarial"
    machine = str(params["machine"])
    budget = require_number(fam, "budget_w", params["budget_w"],
                            positive=True, maximum=200.0)
    phase_scale = require_number(fam, "phase_scale", params["phase_scale"],
                                 minimum=0.05, maximum=2.0)
    duty = require_number(fam, "duty", params["duty"],
                          minimum=0.1, maximum=0.95)
    hot_jobs = require_int(fam, "hot_jobs", params["hot_jobs"], minimum=1)
    cool_fill = require_int(fam, "cool_fill", params["cool_fill"])
    rotate_groups = require_int(fam, "rotate_groups",
                                params["rotate_groups"], minimum=1)
    jitter = require_number(fam, "jitter", params["jitter"],
                            minimum=0.0, maximum=1.0)
    horizon = require_number(fam, "horizon_s", params["horizon_s"],
                             positive=True, maximum=3600.0)
    hot_program = str(params["hot_program"])
    cool_program = str(params["cool_program"])
    for key, name in (("hot_program", hot_program),
                      ("cool_program", cool_program)):
        if name not in PROGRAMS:
            raise ValueError(
                f"{fam}: {key} names unknown program {name!r}; "
                f"available: {sorted(PROGRAMS)}"
            )
    n_cpus = machine_n_cpus(machine)
    if rotate_groups > n_cpus:
        raise ValueError(
            f"{fam}: rotate_groups ({rotate_groups}) exceeds the "
            f"machine's {n_cpus} CPUs"
        )

    dwell = phase_scale * TAU_S
    cycle = dwell / duty
    # Contiguous CPU blocks the hot waves rotate through; block 0 also
    # absorbs any remainder CPUs.
    size = n_cpus // rotate_groups
    blocks = [
        list(range(i * size, (i + 1) * size if i < rotate_groups - 1
                   else n_cpus))
        for i in range(rotate_groups)
    ]

    # Persistent cool fillers: the movable population.  Unpinned, so
    # every balancing response to a wave is a filler migration the next
    # wave invalidates.
    tasks: list[dict[str, Any]] = [
        {"program": cool_program, "arrival_s": 0.0}
        for _ in range(cool_fill)
    ]
    t, wave = 0.0, 0
    while t < horizon:
        block = blocks[wave % rotate_groups]
        for _ in range(hot_jobs):
            offset = rng.uniform(0.0, jitter * dwell)
            entry: dict[str, Any] = {
                "program": hot_program,
                "arrival_s": round(t + offset, 6),
                "solo_job_s": round(dwell, 6),
                "respawn": "none",
            }
            if rotate_groups > 1:
                entry["cpus_allowed"] = block
            tasks.append(entry)
        t += cycle
        wave += 1

    return {
        "machine": machine_dict(machine),
        "max_power_per_cpu_w": budget,
        "throttle": {"enabled": True, "scope": "logical", "mode": "hlt"},
        "counter_jitter_sigma": 0.0,
        "power": {"noise_sigma": 0.0},
        "workload": {
            "name": (f"thermal-adv-p{phase_scale:g}-d{duty:g}"
                     f"-b{budget:g}-g{rotate_groups}"),
            "tasks": tasks,
        },
        "policy": "energy",
        "duration_s": horizon,
    }


register_family(ScenarioFamily(
    name="thermal-adversarial",
    description=(
        "Hot/cool phases tuned to the RC time constant (~20 s): waves "
        "of short-lived hot jobs pinned to rotating CPU blocks under a "
        "tight per-CPU budget with hlt throttling, engineered for "
        "migration ping-pong and throttle storms."
    ),
    defaults={
        "machine": "ibm_x445",
        "budget_w": 18.0,
        "phase_scale": 0.25,
        "duty": 0.6,
        "hot_jobs": 10,
        "cool_fill": 16,
        "rotate_groups": 2,
        "jitter": 0.1,
        "horizon_s": 40.0,
        "hot_program": "bitcnts",
        "cool_program": "memrw",
    },
    generate=_generate_thermal_adversarial,
    fleet_eligible=False,
    adversarial=True,
))


# ---------------------------------------------------------------------------
# Seeded adversarial search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SearchResult:
    """One evaluated candidate, ranked by :func:`adversarial_search`."""

    spec: GeneratorSpec
    migrations_per_s: float
    throttle_fraction: float

    @property
    def score(self) -> float:
        """Ranking key: both failure modes must fire to score high."""
        return self.migrations_per_s * self.throttle_fraction

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "digest": self.spec.digest(),
            "migrations_per_s": self.migrations_per_s,
            "throttle_fraction": self.throttle_fraction,
            "score": self.score,
        }


def _sample_params(rng: random.Random) -> dict[str, Any]:
    """One candidate parameter point, snapped to a coarse lattice so
    distinct draws that would behave identically share a canonical
    spec (and a cache entry)."""
    return {
        "budget_w": round(rng.uniform(14.0, 22.0) * 2) / 2,
        "phase_scale": round(rng.uniform(0.08, 0.5), 2),
        "duty": round(rng.uniform(0.4, 0.9), 2),
        "hot_jobs": rng.randrange(6, 15),
        "cool_fill": rng.randrange(8, 25),
        "rotate_groups": rng.choice([1, 2, 4]),
        "jitter": round(rng.uniform(0.0, 0.3), 2),
    }


def adversarial_search(
    n_candidates: int = 12,
    seed: int = 0,
    duration_s: float = 20.0,
    family: str = "thermal-adversarial",
) -> list[SearchResult]:
    """Sample, run, and rank adversarial candidates (worst first).

    One seeded RNG drives both the parameter draws and each candidate's
    generator seed, so the whole search — candidates, runs, ranking —
    is a pure function of ``(n_candidates, seed, duration_s)``.
    """
    from repro.scenario import parse_scenario

    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    if not duration_s > 0:
        raise ValueError("duration_s must be positive")
    rng = random.Random(seed)
    results: list[SearchResult] = []
    for _ in range(n_candidates):
        spec = GeneratorSpec(
            family, _sample_params(rng), seed=rng.randrange(1, 10_000)
        )
        data = spec.instantiate()
        data["duration_s"] = duration_s
        result = parse_scenario(data).run()
        results.append(SearchResult(
            spec=spec,
            migrations_per_s=result.migrations() / duration_s,
            throttle_fraction=result.average_throttle_fraction(),
        ))
    results.sort(
        key=lambda r: (r.score, r.migrations_per_s, r.spec.digest()),
        reverse=True,
    )
    return results
