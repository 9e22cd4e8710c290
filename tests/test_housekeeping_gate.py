"""The single-machine housekeeping gate (§4.4).

A ``periodic_balance`` pass moves a task only off a queue holding at
least 2 tasks (``balance_can_move``; checked for every balancer config
by ``test_core_policy.py::TestUncrowdedPassMovesNothing``).  The
unobserved fast path therefore skips every due pass while no queue is
that crowded.  The scalar path is the specification and keeps every
pass, so the gate cases run both paths in lockstep through the
fast-vs-scalar oracle and require identical probes and byte-equal
summaries besides the call counts.
"""

from __future__ import annotations

import pytest

import repro.system
from repro.api import SimulationResult
from repro.config import SystemConfig
from repro.cpu.topology import MachineSpec
from repro.obs.observer import ObservabilityConfig
from repro.scenarios import GeneratorSpec
from repro.sim.clock import Clock
from repro.system import System, _hk_fires
from repro.validate import replay_pair
from repro.validate.oracle import summary_bytes
from repro.workloads.generator import steady_mix_workload

DURATION_S = 2.0

#: Sporadic releases on 4 CPUs: no runqueue ever holds 2 tasks, so the
#: fast path's gate skips every pass.
UNCROWDED = GeneratorSpec(
    "sporadic",
    {"machine": "smp4", "n_tasks": 6, "utilization": 2.0, "horizon_s": 6.0},
    seed=1,
)

#: Poisson arrivals on 4 CPUs that crowd a queue on some balance ticks
#: and not on others: the gate skips some passes and runs the rest.
PARTLY_CROWDED = GeneratorSpec(
    "poisson", {"machine": "smp4", "rate_per_s": 3.0, "horizon_s": 4.0},
    seed=1,
)


def _build(spec, fast: bool, obs=False) -> System:
    scenario = spec.build()
    return System(
        scenario.config, scenario.workload, policy=scenario.policy,
        fast_path=fast, obs=obs,
    )


def _count_passes(system: System) -> list[int]:
    """Wrap the policy's bound ``periodic_balance``; return the tally."""
    calls = [0]
    inner = system.policy.periodic_balance

    def counted(cpu_id: int) -> int:
        calls[0] += 1
        return inner(cpu_id)

    system.policy.periodic_balance = counted
    return calls


def _replay(fast: System, scalar: System) -> tuple[int, int]:
    """Lockstep replay with equal probes and summaries; returns the
    fast and scalar pass counts."""
    fast_calls = _count_passes(fast)
    scalar_calls = _count_passes(scalar)
    n_ticks = Clock(fast.config.tick_ms).ticks_for_ms(DURATION_S * 1000.0)
    report = replay_pair(fast, scalar, n_ticks)
    assert report.identical, report.to_dict()
    return fast_calls[0], scalar_calls[0]


class TestGate:
    def test_uncrowded_fast_path_skips_every_pass(self):
        fast, scalar = _replay(
            _build(UNCROWDED, True), _build(UNCROWDED, False)
        )
        assert fast == 0
        assert scalar > 0  # the scalar path is never gated

    def test_crowded_machine_runs_every_pass(self):
        """8 non-interactive tasks on 4 CPUs: a queue holds 2 on every
        tick, so the gate skips nothing."""
        config = SystemConfig(
            machine=MachineSpec.smp(4), max_power_per_cpu_w=60.0, seed=42
        )
        workload = steady_mix_workload(2)
        fast, scalar = _replay(
            System(config, workload, fast_path=True),
            System(config, workload, fast_path=False),
        )
        assert fast == scalar > 0

    def test_partly_crowded_run_keeps_some_passes(self):
        fast, scalar = _replay(
            _build(PARTLY_CROWDED, True), _build(PARTLY_CROWDED, False)
        )
        assert 0 < fast < scalar


class TestObservedRunsKeepEveryPass:
    def test_audit_log_sees_every_pass(self):
        obs = ObservabilityConfig(audit=True, metrics=True, profiling=False)
        fast_sys = _build(UNCROWDED, True, obs=obs)
        scalar_sys = _build(UNCROWDED, False, obs=obs)
        assert fast_sys._obs_balance_hist is None  # only the audit holds it
        fast, scalar = _replay(fast_sys, scalar_sys)
        assert fast == scalar > 0
        fast_records = fast_sys.observer.audit.to_dicts()
        assert fast_records == scalar_sys.observer.audit.to_dicts()
        # Passes that found nothing to pull still leave their record.
        unqualified = [
            r for r in fast_records
            if r["site"] == "energy_balance" and not r["accepted"]
        ]
        assert unqualified

    def test_balance_histogram_counts_every_pass(self):
        obs = ObservabilityConfig(audit=False, metrics=True, profiling=True)
        fast_sys = _build(UNCROWDED, True, obs=obs)
        scalar_sys = _build(UNCROWDED, False, obs=obs)
        assert fast_sys._obs_audit is None  # only the histogram holds it
        fast, scalar = _replay(fast_sys, scalar_sys)
        assert fast == scalar > 0
        fast_hist = fast_sys.observer.registry.get("repro_balance_pass_seconds")
        scalar_hist = scalar_sys.observer.registry.get(
            "repro_balance_pass_seconds"
        )
        assert fast_hist.count() == scalar_hist.count() == scalar


class TestGateReadsQueuesLive:
    def test_hot_migration_that_crowds_a_queue_reopens_the_gate(self):
        """A hot check that leaves 2 tasks on one queue (as a hot
        exchange does when a fault plan drops its first half) must let
        a later balance candidate of the same tick run."""
        system = _build(UNCROWDED, True)
        policy = system.policy
        inner_balance = policy.periodic_balance
        inner_hot = policy.check_active_migration
        periods = (
            system._balance_ticks, system._idle_balance_ticks,
            system._hot_check_ticks,
        )
        rqs = system._rq_list
        clock = Clock(system.config.tick_ms)
        passes: list[tuple[int, int]] = []
        crowded_at: list[tuple[int, int]] = []

        def balance(cpu_id: int) -> int:
            passes.append((clock.ticks, cpu_id))
            return inner_balance(cpu_id)

        def hot_check(cpu_id: int) -> bool:
            fires = _hk_fires(clock.ticks, *periods, system.n_cpus)
            later_balance = any(c > cpu_id and m & 1 for c, m in fires)
            single = [c for c, rq in enumerate(rqs)
                      if rq.nr == 1 and rq.current is not None]
            if crowded_at or not later_balance or len(single) < 2:
                return inner_hot(cpu_id)
            src, dst = single[:2]
            task = rqs[src].current
            assert task.allowed_on(dst)
            assert not any(rq.nr >= 2 for rq in rqs)  # the gate is closed
            system._migrate(task, src, dst, "hot_task")
            assert rqs[dst].nr == 2
            crowded_at.append((clock.ticks, cpu_id))
            return True

        policy.periodic_balance = balance
        policy.check_active_migration = hot_check
        for _ in range(clock.ticks_for_ms(6000.0)):
            clock.advance()
            system.tick(clock)
            if crowded_at:
                break
        assert crowded_at, "no tick had a hot check before a balance candidate"
        tick, hot_cpu = crowded_at[0]
        assert any(t == tick and c > hot_cpu for t, c in passes), passes


class TestModuloFallback:
    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("spec", [UNCROWDED, PARTLY_CROWDED])
    def test_fallback_matches_fire_table(self, monkeypatch, spec, fast):
        """With the table cap at 0 every tick's fires come from the
        modulo fallback; the gate covers it the same way.  The tabled
        run caches its table first, so the cap is checked outside the
        per-process cache."""

        def run() -> tuple[int, str]:
            system = _build(spec, fast)
            calls = _count_passes(system)
            clock = Clock(system.config.tick_ms)
            for _ in range(clock.ticks_for_ms(DURATION_S * 1000.0)):
                clock.advance()
                system.tick(clock)
            summary = SimulationResult(system, DURATION_S).scalar_summary()
            assert bool(system._hk_tables) == (repro.system._HK_TABLE_MAX > 0)
            return calls[0], summary_bytes(summary)

        tabled = run()
        monkeypatch.setattr(repro.system, "_HK_TABLE_MAX", 0)
        assert run() == tabled


class TestFireTableMemo:
    def test_table_is_shared_and_equals_per_tick_fires(self):
        a = _build(UNCROWDED, True)
        b = _build(PARTLY_CROWDED, True)
        clock = Clock(a.config.tick_ms)
        clock.advance()
        a._housekeeping(clock)
        b._housekeeping(clock)
        assert a._hk_tables is b._hk_tables
        periods = (a._balance_ticks, a._idle_balance_ticks, a._hot_check_ticks)
        for r, fires in enumerate(a._hk_tables):
            assert fires == _hk_fires(r, *periods, a.n_cpus)
