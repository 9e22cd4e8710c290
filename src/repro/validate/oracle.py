"""Differential oracle: fast vs. scalar replay and metamorphic checks.

``repro validate`` checks here that the batched and scalar tick loops
agree, tick by tick and not only on the final summary (which
:func:`replay_pair` also compares byte for byte).  Two systems are built
from the same (config, workload, policy) triple — one per tick path —
and advanced in lockstep.  After each tick a canonical probe of the
machine state (per-CPU powers, the thermal EWMA column, package
temperatures, runqueue lengths, job and migration counters, the PMC
counter registers) is compared
*exactly*: the paths are bit-identical by construction, so the first
unequal probe pinpoints the tick a regression was introduced, not just
that one happened.

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

from repro.config import SystemConfig
from repro.core.policy import EnergyAwareConfig
from repro.core.policyspec import PolicySpec
from repro.sim.clock import Clock
from repro.system import System
from repro.workloads.generator import TaskSpec, WorkloadSpec


@dataclass(frozen=True, slots=True)
class Divergence:
    """First point where the two replayed systems disagreed."""

    tick: int
    fields: tuple[str, ...]
    details: dict[str, tuple[object, object]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "fields": list(self.fields),
            "details": {
                k: {"a": repr(a), "b": repr(b)}
                for k, (a, b) in sorted(self.details.items())
            },
        }


@dataclass(frozen=True, slots=True)
class OracleReport:
    """Outcome of one differential replay."""

    n_ticks: int
    divergence: Divergence | None
    summaries_identical: bool
    summary_a: dict
    summary_b: dict

    @property
    def identical(self) -> bool:
        return self.divergence is None and self.summaries_identical

    def to_dict(self) -> dict:
        return {
            "n_ticks": self.n_ticks,
            "identical": self.identical,
            "summaries_identical": self.summaries_identical,
            "divergence": (
                self.divergence.to_dict() if self.divergence is not None else None
            ),
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


def replay_pair(
    system_a: System,
    system_b: System,
    n_ticks: int,
    probe_every: int = 1,
) -> OracleReport:
    """Advance both systems in lockstep, diffing probes as they go.

    The first divergent probe is recorded (tick and unequal fields) but
    the replay runs to completion so the final summaries are still
    comparable — a divergence that later cancels out is a different,
    nastier bug than one that compounds, and the report distinguishes
    them.
    """
    if n_ticks < 1:
        raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
    if probe_every < 1:
        raise ValueError(f"probe_every must be >= 1, got {probe_every}")
    clock_a = Clock(system_a.config.tick_ms)
    clock_b = Clock(system_b.config.tick_ms)
    divergence: Divergence | None = None
    for _ in range(n_ticks):
        clock_a.advance()
        clock_b.advance()
        system_a.tick(clock_a)
        system_b.tick(clock_b)
        if divergence is not None or clock_a.ticks % probe_every != 0:
            continue
        probe_a = probe(system_a)
        probe_b = probe(system_b)
        if probe_a != probe_b:
            unequal = tuple(
                name for name in probe_a if probe_a[name] != probe_b[name]
            )
            divergence = Divergence(
                tick=clock_a.ticks,
                fields=unequal,
                details={name: (probe_a[name], probe_b[name]) for name in unequal},
            )
    from repro.api import SimulationResult  # local: api imports System

    duration_s = n_ticks * clock_a.tick_s
    summary_a = SimulationResult(system_a, duration_s).scalar_summary()
    summary_b = SimulationResult(system_b, duration_s).scalar_summary()
    return OracleReport(
        n_ticks=n_ticks,
        divergence=divergence,
        summaries_identical=summary_bytes(summary_a) == summary_bytes(summary_b),
        summary_a=summary_a,
        summary_b=summary_b,
    )


def differential_replay(
    config: SystemConfig,
    workload: WorkloadSpec,
    policy: PolicySpec | str = "energy",
    policy_config: EnergyAwareConfig | None = None,
    duration_s: float = 5.0,
    probe_every: int = 1,
    validate: bool = False,
) -> OracleReport:
    """Replay one job spec through the fast and scalar tick paths."""
    policy = PolicySpec.coerce(policy)

    def build(fast: bool) -> System:
        return System(
            config,
            workload,
            policy=policy,
            policy_config=policy_config,
            fast_path=fast,
            validate=validate,
        )

    n_ticks = Clock(config.tick_ms).ticks_for_ms(duration_s * 1000.0)
    return replay_pair(build(True), build(False), n_ticks, probe_every)


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
    policy_config: EnergyAwareConfig | None = None,
    duration_s: float = 5.0,
    rel_tol: float = 1e-9,
) -> MetamorphicReport:
    """Swapping each pinned task onto its SMT sibling must not change
    aggregate energy or throughput.

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
    policy = PolicySpec.coerce(policy)
    quiet = replace(config, counter_jitter_sigma=0.0)

    def run(flip: bool) -> System:
        system_probe = System(quiet, workload, policy=policy,
                              policy_config=policy_config)
        n_cpus = system_probe.n_cpus
        siblings = system_probe._siblings
        pinned = []
        for i, task_spec in enumerate(workload.tasks):
            cpu = i % n_cpus
            if flip:
                cpu = siblings[cpu][0]
            pinned.append(replace(task_spec, cpus_allowed=(cpu,)))
        pinned_workload = WorkloadSpec(
            name=f"{workload.name}-pinned{'-flipped' if flip else ''}",
            tasks=tuple(pinned),
        )
        system = System(quiet, pinned_workload, policy=policy,
                        policy_config=policy_config)
        clock = Clock(quiet.tick_ms)
        for _ in range(clock.ticks_for_ms(duration_s * 1000.0)):
            clock.advance()
            system.tick(clock)
        return system

    system_a = run(flip=False)
    system_b = run(flip=True)
    energy_a = _total_energy_j(system_a)
    energy_b = _total_energy_j(system_b)
    jobs_a = system_a.fractional_jobs()
    jobs_b = system_b.fractional_jobs()
    ok = math.isclose(energy_a, energy_b, rel_tol=rel_tol, abs_tol=1e-9) and (
        math.isclose(jobs_a, jobs_b, rel_tol=rel_tol, abs_tol=1e-9)
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
