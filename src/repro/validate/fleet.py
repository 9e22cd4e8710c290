"""Lockstep differential validation of the fleet engine.

The fleet engine (:mod:`repro.fleet`) is an independent implementation
of the tick loop — SoA arrays with a leading machine axis instead of
per-system Python objects — so the scalar engine doubles as its
differential oracle.  :func:`fleet_lockstep` advances N scalar systems
and one N-member :class:`~repro.fleet.FleetEngine` built from identical
configurations tick by tick, flushing the fleet's arrays back into its
member ``System`` objects and diffing each member against its scalar
twin with the same :func:`repro.validate.oracle.probe` snapshot the
fast/scalar oracle uses.

Reporting is per machine: the first divergent probe of *each* member is
recorded (tick, unequal fields, both values), so one bad machine in a
64-wide batch is named by index and seed instead of drowning in an
aggregate mismatch.  As with :func:`~repro.validate.oracle.replay_pair`,
the replay runs to completion and final summaries are compared byte for
byte — a divergence that cancels out is distinguished from one that
compounds.

``python -m repro validate`` runs this check over the pinned fleet
benchmark scenario (see :mod:`repro.validate.runner`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.clock import Clock
from repro.system import System
from repro.validate.oracle import probe


@dataclass(frozen=True, slots=True)
class MemberDivergence:
    """First divergent probe of one fleet member vs its scalar twin."""

    member: int
    seed: int
    tick: int
    fields: tuple[str, ...]
    details: dict

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "seed": self.seed,
            "tick": self.tick,
            "fields": list(self.fields),
        }

    def describe(self) -> str:
        return (
            f"member {self.member} (seed {self.seed}) diverged at tick "
            f"{self.tick}: {', '.join(self.fields)}"
        )


@dataclass(frozen=True, slots=True)
class FleetOracleReport:
    """Outcome of one fleet-vs-scalar lockstep replay."""

    n_ticks: int
    n_machines: int
    divergences: tuple[MemberDivergence, ...]
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


def _encode(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def fleet_lockstep(
    builders: Sequence[Callable[[], System]],
    n_ticks: int,
    probe_every: int = 1,
) -> FleetOracleReport:
    """Advance fleet and scalar twins in lockstep, diffing per member.

    ``builders`` is one zero-argument ``System`` factory per machine;
    each is called twice so the fleet member and its scalar twin start
    from byte-identical state.  Probes are taken every ``probe_every``
    ticks (the fleet's arrays are flushed back first); each member's
    first divergence is recorded and that member stops being probed,
    but every machine still runs to completion so the final
    ``scalar_summary()`` comparison is meaningful.
    """
    from repro.fleet import FleetEngine

    if n_ticks < 1:
        raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
    if probe_every < 1:
        raise ValueError(f"probe_every must be >= 1, got {probe_every}")
    if not builders:
        raise ValueError("need at least one system builder")

    scalars = [build() for build in builders]
    fleet = FleetEngine([build() for build in builders])
    clocks = [Clock(system.config.tick_ms) for system in scalars]
    diverged: dict[int, MemberDivergence] = {}

    for _ in range(n_ticks):
        fleet.clock.advance()
        fleet.tick(fleet.clock)
        for clock, system in zip(clocks, scalars):
            clock.advance()
            system.tick(clock)
        if fleet.clock.ticks % probe_every != 0:
            continue
        if len(diverged) == len(scalars):
            continue
        fleet.sync()
        for m, system in enumerate(scalars):
            if m in diverged:
                continue
            probe_scalar = probe(system)
            probe_fleet = probe(fleet.systems[m])
            if probe_fleet != probe_scalar:
                unequal = tuple(
                    name for name in probe_scalar
                    if probe_scalar[name] != probe_fleet[name]
                )
                diverged[m] = MemberDivergence(
                    member=m,
                    seed=system.config.seed,
                    tick=fleet.clock.ticks,
                    fields=unequal,
                    details={
                        name: (probe_fleet[name], probe_scalar[name])
                        for name in unequal
                    },
                )

    from repro.api import SimulationResult  # local: api imports System

    fleet.sync()
    duration_s = n_ticks * scalars[0].config.tick_ms / 1000.0
    summaries_identical = all(
        _encode(SimulationResult(fleet.systems[m], duration_s).scalar_summary())
        == _encode(SimulationResult(system, duration_s).scalar_summary())
        for m, system in enumerate(scalars)
    )
    return FleetOracleReport(
        n_ticks=n_ticks,
        n_machines=len(scalars),
        divergences=tuple(diverged[m] for m in sorted(diverged)),
        summaries_identical=summaries_identical,
    )


def fleet_oracle_check(
    n_machines: int = 8,
    duration_s: float = 5.0,
    probe_every: int = 1,
    first_seed: int = 1,
) -> FleetOracleReport:
    """Run the lockstep check on the pinned fleet configuration.

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
    return fleet_lockstep([make_builder(seed) for seed in seeds], n_ticks,
                          probe_every=probe_every)
