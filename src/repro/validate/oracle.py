"""Differential oracle: one lockstep replay for every tick implementation.

``repro validate`` checks here that the batched single-machine path and
the fleet engine agree with the scalar reference, tick by tick and not
only on the final summary (which :func:`lockstep` also compares byte for
byte).  Each candidate machine is built from the same (config,
workload, policy) triple as its scalar reference, and both are advanced
in lockstep.  After each probed tick a canonical probe of the machine
state (per-CPU powers, the thermal EWMA column, package temperatures,
runqueue lengths, job and migration counters, the PMC counter
registers) is compared *exactly*: the paths are bit-identical by
construction, so the first unequal probe pinpoints the tick a
regression was introduced, not just that one happened.

:func:`lockstep` is the one loop.  :func:`replay_pair` drives one fast
machine against one scalar machine, and :func:`fleet_lockstep` one
:class:`~repro.fleet.FleetEngine` against a scalar twin per member;
both report through the same :class:`OracleReport`, which names each
diverging machine by index and seed.

The metamorphic check exploits a symmetry of the model rather than a
second implementation: with counter jitter disabled and every task
pinned, relabeling each task's CPU to its SMT sibling permutes state
that the policy treats symmetrically (siblings share the package,
the RC model, and the power budget — §4.7), so aggregate energy and
throughput must be invariant under the swap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.config import SystemConfig
from repro.core.policyspec import PolicySpec
from repro.cpu.topology import Topology
from repro.sim.clock import Clock
from repro.system import System
from repro.workloads.generator import WorkloadSpec

#: Relative tolerance of the relabeling check's energy and job totals.
RELABEL_REL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Divergence:
    """First divergent probe of one machine against its reference.

    ``details`` maps each unequal field to the (candidate, reference)
    values.
    """

    member: int
    seed: int
    tick: int
    fields: tuple[str, ...]
    details: dict[str, tuple[object, object]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "seed": self.seed,
            "tick": self.tick,
            "fields": list(self.fields),
            "details": {
                k: {"a": repr(a), "b": repr(b)}
                for k, (a, b) in sorted(self.details.items())
            },
        }

    def describe(self) -> str:
        return (
            f"member {self.member} (seed {self.seed}) diverged at tick "
            f"{self.tick}: {', '.join(self.fields)}"
        )


@dataclass(frozen=True, slots=True)
class OracleReport:
    """Outcome of one lockstep replay: each machine's first divergence,
    in member order, and whether every final summary matched."""

    n_ticks: int
    n_machines: int
    divergences: tuple[Divergence, ...]
    summaries_identical: bool

    @property
    def identical(self) -> bool:
        return not self.divergences and self.summaries_identical

    def to_dict(self) -> dict:
        return {
            "n_ticks": self.n_ticks,
            "n_machines": self.n_machines,
            "identical": self.identical,
            "summaries_identical": self.summaries_identical,
            "divergences": [d.to_dict() for d in self.divergences],
        }


def probe(system: System) -> dict[str, object]:
    """Canonical per-tick snapshot of the state both paths must share.

    Everything here is either copied (lists) or immutable, so probes
    from different ticks can be compared after the fact.
    """
    tracer = system.tracer
    return {
        "est_power": list(system._est_power),
        "dyn_power": list(system._dyn_power),
        "thermal_w": list(system.metrics.thermal_w),
        "pkg_temp_c": list(system._pkg_temp_c),
        "pkg_est_temp_c": list(system._pkg_est_temp_c),
        "pkg_est_power_w": list(system._est_pkg_power),
        "running": list(system._running),
        "rq_nr": [system.runqueues[c].nr for c in range(system.n_cpus)],
        "rq_pids": [
            tuple(t.pid for t in system.runqueues[c].tasks())
            for c in range(system.n_cpus)
        ],
        "jobs_total": tracer.counters.get("jobs_total"),
        "migrations": tracer.counters.get("migrations"),
        "throttled": list(system.throttle.throttled),
        "freq_scale": list(system._freq_scale),
        # Raw bytes, so NaN-corrupted registers with equal bits compare
        # equal (NaN != NaN as floats).
        "pmc_counts": system._counts_mx.tobytes(),
    }


def summary_bytes(summary: dict) -> str:
    """Key-sorted JSON encoding — byte-stable across dict orders."""
    return json.dumps(summary, sort_keys=True)


def lockstep(
    advance: Callable[[bool], None],
    systems: Sequence[System],
    references: Sequence[System],
    n_ticks: int,
    probe_every: int = 1,
) -> OracleReport:
    """Advance candidates and references in lockstep, diffing per machine.

    ``advance(readable)`` moves every candidate in ``systems`` one tick
    on; ``readable`` is true on probe ticks and on the last tick, when
    the candidates' state must be readable through their ``System``
    objects (the fleet flushes its arrays then).  Each reference runs on
    its own :class:`~repro.sim.clock.Clock`.  Every ``probe_every``
    ticks each machine is probed against its reference; its first
    divergence is recorded and it is not probed again, but every machine
    runs to the end, so the final ``scalar_summary()`` comparison still
    tells a divergence that cancels out from one that compounds.
    """
    if n_ticks < 1:
        raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
    if probe_every < 1:
        raise ValueError(f"probe_every must be >= 1, got {probe_every}")
    if not systems or len(systems) != len(references):
        raise ValueError(
            f"need one reference per system, got {len(systems)} systems "
            f"and {len(references)} references"
        )
    clocks = [Clock(reference.config.tick_ms) for reference in references]
    diverged: dict[int, Divergence] = {}
    for tick in range(1, n_ticks + 1):
        probing = tick % probe_every == 0
        advance(probing or tick == n_ticks)
        for clock, reference in zip(clocks, references):
            clock.advance()
            reference.tick(clock)
        if not probing:
            continue
        for m, (system, reference) in enumerate(zip(systems, references)):
            if m in diverged:
                continue
            candidate, expected = probe(system), probe(reference)
            if candidate != expected:
                unequal = tuple(
                    name for name in expected if candidate[name] != expected[name]
                )
                diverged[m] = Divergence(
                    member=m,
                    seed=system.config.seed,
                    tick=tick,
                    fields=unequal,
                    details={
                        name: (candidate[name], expected[name])
                        for name in unequal
                    },
                )
    from repro.api import SimulationResult  # local: api imports System

    duration_s = n_ticks * clocks[0].tick_s
    summaries_identical = all(
        summary_bytes(SimulationResult(system, duration_s).scalar_summary())
        == summary_bytes(SimulationResult(reference, duration_s).scalar_summary())
        for system, reference in zip(systems, references)
    )
    return OracleReport(
        n_ticks=n_ticks,
        n_machines=len(systems),
        divergences=tuple(diverged[m] for m in sorted(diverged)),
        summaries_identical=summaries_identical,
    )


def replay_pair(
    system_a: System,
    system_b: System,
    n_ticks: int,
    probe_every: int = 1,
) -> OracleReport:
    """:func:`lockstep` of ``system_a`` against the reference ``system_b``."""
    clock = Clock(system_a.config.tick_ms)

    def advance(readable: bool) -> None:
        clock.advance()
        system_a.tick(clock)

    return lockstep(advance, [system_a], [system_b], n_ticks, probe_every)


def differential_replay(
    config: SystemConfig,
    workload: WorkloadSpec,
    policy: PolicySpec | str = "energy",
    duration_s: float = 5.0,
    probe_every: int = 1,
) -> OracleReport:
    """Replay one job spec through the fast and scalar tick paths."""
    fast, scalar = (
        System(config, workload, policy=policy, fast_path=fast_path)
        for fast_path in (True, False)
    )
    n_ticks = Clock(config.tick_ms).ticks_for_ms(duration_s * 1000.0)
    return replay_pair(fast, scalar, n_ticks, probe_every)


def fleet_lockstep(
    builders: Sequence[Callable[[], System]], n_ticks: int
) -> OracleReport:
    """:func:`lockstep` of one :class:`~repro.fleet.FleetEngine` against
    a scalar twin per member.

    ``builders`` is one zero-argument ``System`` factory per machine;
    each is called twice, twin first, so the fleet member and its
    scalar twin start from byte-identical state.
    """
    from repro.fleet import FleetEngine

    twins = [build() for build in builders]
    fleet = FleetEngine([build() for build in builders])

    def advance(readable: bool) -> None:
        fleet.clock.advance()
        fleet.tick(fleet.clock)
        if readable:
            fleet.sync()

    return lockstep(advance, fleet.systems, twins, n_ticks)


def fleet_oracle_check(
    n_machines: int = 8,
    duration_s: float = 5.0,
    first_seed: int = 1,
) -> OracleReport:
    """Run :func:`fleet_lockstep` on the pinned fleet configuration.

    ``n_machines`` members of
    :data:`repro.scenarios.pinned.FLEET_SCENARIO`, seeds
    ``first_seed`` onwards, advanced ``duration_s`` simulated seconds.
    """
    from repro.scenario import parse_scenario
    from repro.scenarios.pinned import FLEET_SCENARIO

    def make_builder(seed: int) -> Callable[[], System]:
        def build() -> System:
            member = parse_scenario(dict(FLEET_SCENARIO.scenario, seed=seed))
            return System(member.config, member.workload,
                          policy=member.policy)

        return build

    seeds = range(first_seed, first_seed + n_machines)
    tick_ms = parse_scenario(FLEET_SCENARIO.scenario).config.tick_ms
    n_ticks = Clock(tick_ms).ticks_for_ms(duration_s * 1000.0)
    return fleet_lockstep([make_builder(seed) for seed in seeds], n_ticks)


# ---------------------------------------------------------------------------
# Metamorphic check: SMT sibling relabeling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MetamorphicReport:
    """Outcome of the sibling-relabeling energy-invariance check."""

    applicable: bool
    reason: str
    energy_a_j: float = 0.0
    energy_b_j: float = 0.0
    jobs_a: float = 0.0
    jobs_b: float = 0.0
    ok: bool = True

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "reason": self.reason,
            "ok": self.ok,
            "energy_a_j": self.energy_a_j,
            "energy_b_j": self.energy_b_j,
            "jobs_a": self.jobs_a,
            "jobs_b": self.jobs_b,
        }


def _total_energy_j(system: System) -> float:
    tasks = system.live_tasks() + system.exited_tasks
    return sum(t.total_energy_j for t in sorted(tasks, key=lambda t: t.pid))


def smt_relabel_check(
    config: SystemConfig,
    workload: WorkloadSpec,
    policy: PolicySpec | str = "energy",
    duration_s: float = 5.0,
) -> MetamorphicReport:
    """Swapping each pinned task onto its SMT sibling must not change
    aggregate energy or throughput (within :data:`RELABEL_REL_TOL`).

    Counter jitter is disabled for both runs (the per-CPU jitter RNG
    streams are the one part of the model that is *not* symmetric under
    relabeling); everything else — package power, the RC model, SMT
    slowdown, the §4.7 budget split — treats siblings identically, so
    the two schedules are exact mirror images.
    """
    spec = config.machine
    if spec.threads_per_core < 2:
        return MetamorphicReport(
            applicable=False,
            reason=f"machine has threads_per_core={spec.threads_per_core}; "
                   f"no SMT sibling pairs to relabel",
        )
    from repro.api import run_simulation  # local: api imports System

    quiet = replace(config, counter_jitter_sigma=0.0)
    topology = Topology(spec)

    def run(flip: bool) -> System:
        pinned = []
        for i, task_spec in enumerate(workload.tasks):
            cpu = i % len(topology)
            if flip:
                cpu = topology.siblings_of(cpu)[0]
            pinned.append(replace(task_spec, cpus_allowed=(cpu,)))
        pinned_workload = WorkloadSpec(
            name=f"{workload.name}-pinned{'-flipped' if flip else ''}",
            tasks=tuple(pinned),
        )
        return run_simulation(quiet, pinned_workload, policy=policy,
                              duration_s=duration_s).system

    system_a = run(flip=False)
    system_b = run(flip=True)
    energy_a = _total_energy_j(system_a)
    energy_b = _total_energy_j(system_b)
    jobs_a = system_a.fractional_jobs()
    jobs_b = system_b.fractional_jobs()
    ok = all(
        math.isclose(a, b, rel_tol=RELABEL_REL_TOL, abs_tol=1e-9)
        for a, b in ((energy_a, energy_b), (jobs_a, jobs_b))
    )
    return MetamorphicReport(
        applicable=True,
        reason="relabeled each pinned task onto its SMT sibling",
        energy_a_j=energy_a,
        energy_b_j=energy_b,
        jobs_a=jobs_a,
        jobs_b=jobs_b,
        ok=ok,
    )
