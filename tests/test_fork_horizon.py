"""The arrival horizon: ``System._fork_due`` and the fleet's ``fork_next``.

``_fork_due`` keeps the earliest pending arrival (``_next_fork_ms``)
and returns after one comparison until the clock reaches it.  The
reference is the per-tick scan it replaced, kept here as a subclass:
every unforked slot tested on every tick, in slot order.  Fork ticks,
pid order within a tick and the ``TASK_START`` events must match it.
"""

from __future__ import annotations

import math

import pytest

from repro.api import SimulationResult
from repro.config import SystemConfig
from repro.cpu.topology import MachineSpec
from repro.fleet import FleetEngine
from repro.resilience.checkpoint import restore, snapshot
from repro.scenarios import GeneratorSpec
from repro.sim.clock import Clock
from repro.sim.events import EventKind
from repro.system import System
from repro.validate.oracle import summary_bytes
from repro.workloads.generator import TaskSpec, WorkloadSpec
from repro.workloads.programs import program

#: Out of slot order, with a tie and one arrival between two 10 ms ticks.
ARRIVALS_S = (0.5, 0.2, 0.2, 0.0, 0.35, 0.2005)
DURATION_S = 0.6


class PerTickScan(System):
    """The fork loop before the horizon: scan every slot on every tick."""

    def _fork_due(self, now_ms: int) -> None:
        for slot in self.slots:
            if not slot.forked and slot.spec.arrival_s * 1000 <= now_ms:
                self._fork(slot, now_ms)


def _config() -> SystemConfig:
    return SystemConfig(
        machine=MachineSpec.smp(4), max_power_per_cpu_w=60.0, seed=7
    )


def _workload() -> WorkloadSpec:
    names = ("bitcnts", "memrw", "aluadd", "pushpop", "openssl", "bzip2")
    return WorkloadSpec(
        name="out-of-order-arrivals",
        tasks=tuple(
            TaskSpec(program=program(name), arrival_s=at)
            for name, at in zip(names, ARRIVALS_S)
        ),
    )


def _advance(system: System, clock: Clock, until_s: float) -> None:
    while clock.now_ms < until_s * 1000.0:
        clock.advance()
        system.tick(clock)


def _outputs(system: System) -> tuple[list, str]:
    starts = system.tracer.events_of(EventKind.TASK_START)
    summary = SimulationResult(system, DURATION_S).scalar_summary()
    return starts, summary_bytes(summary)


class TestArrivalHorizon:
    @pytest.mark.parametrize("fast", [True, False])
    def test_forks_match_the_per_tick_scan(self, fast):
        runs = []
        for cls in (System, PerTickScan):
            system = cls(_config(), _workload(), fast_path=fast)
            _advance(system, Clock(system.config.tick_ms), DURATION_S)
            runs.append(_outputs(system))
        (starts, summary), (ref_starts, ref_summary) = runs
        assert starts == ref_starts
        assert summary == ref_summary
        # Fork ticks (10 ms) and slot order within the shared tick.
        assert [(e.time_ms, e.detail["slot"]) for e in starts] == [
            (10, 3), (200, 1), (200, 2), (210, 5), (350, 4), (500, 0),
        ]
        assert [e.pid for e in starts] == sorted(e.pid for e in starts)

    def test_horizon_tracks_the_earliest_pending_arrival(self):
        system = System(_config(), _workload())
        clock = Clock(system.config.tick_ms)
        assert system._next_fork_ms == 0.0
        seen = []
        while clock.now_ms < DURATION_S * 1000.0:
            clock.advance()
            system.tick(clock)
            pending = [
                slot.spec.arrival_s * 1000
                for slot in system.slots if not slot.forked
            ]
            assert system._next_fork_ms == min(pending, default=math.inf)
            if not seen or seen[-1] != system._next_fork_ms:
                seen.append(system._next_fork_ms)
        assert seen == [200.0, 0.2005 * 1000, 350.0, 500.0, math.inf]

    def test_restore_between_arrivals_continues_identically(self):
        whole = System(_config(), _workload())
        _advance(whole, Clock(whole.config.tick_ms), DURATION_S)

        first = System(_config(), _workload())
        clock = Clock(first.config.tick_ms)
        _advance(first, clock, 0.3)
        restored = restore(snapshot(first))
        assert "_next_fork_ms" not in first.__getstate__()
        assert restored._next_fork_ms == first._next_fork_ms == 0.35 * 1000
        _advance(restored, clock, DURATION_S)
        assert _outputs(restored) == _outputs(whole)


class TestFleetReadsTheHorizon:
    def test_fork_next_is_each_members_horizon(self):
        members = [
            GeneratorSpec(
                "sporadic",
                {"machine": "smp4", "n_tasks": 6, "utilization": 2.0,
                 "horizon_s": 6.0},
                seed=seed,
            ).build()
            for seed in (1, 2, 3)
        ]
        engine = FleetEngine([
            System(s.config, s.workload, policy=s.policy) for s in members
        ])

        def check() -> list[float]:
            horizons = [s._next_fork_ms for s in engine.systems]
            assert engine.fork_next.tolist() == horizons
            assert engine._fork_min == min(horizons)
            return horizons

        history = [check()]
        for _ in range(engine.clock.ticks_for_ms(6000.0)):
            engine.run_ticks(1)
            horizons = check()
            if horizons != history[-1]:
                history.append(horizons)
        assert len(history) > 3  # the members forked at staggered ticks
        assert history[-1] == [math.inf] * len(members)
