"""Fleet engine vs scalar engine: bit-level equivalence.

The fleet engine is an independent reimplementation of the tick loop
(SoA arrays, leading machine axis), so these tests drive it in lockstep
against scalar twins built from identical configurations and require
*byte* equality — summaries are compared through their canonical JSON
encoding, so two floats only match when their bit patterns do.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.cpu.power import PowerModelParams
from repro.cpu.throttle import ThrottleConfig
from repro.fleet import FleetEngine, FleetUnsupported, check_fleet_supported
from repro.scenario import parse_scenario
from repro.scenarios.pinned import FLEET_SCENARIO
from repro.system import System
from repro.validate import fleet_lockstep, fleet_oracle_check
from repro.workloads.generator import steady_mix_workload

DURATION_S = 3.0
N_TICKS = 300  # 3 s at the 10 ms default tick


def _member_config(seed: int, **overrides) -> SystemConfig:
    base = parse_scenario(dict(FLEET_SCENARIO.scenario, seed=seed)).config
    if not overrides:
        return base
    from dataclasses import replace

    return replace(base, **overrides)


def _build(seed: int, policy: str, **overrides) -> System:
    config = _member_config(seed, **overrides)
    return System(config, steady_mix_workload(4), policy=policy)


def _encode(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


class TestLockstepEquivalence:
    @pytest.mark.parametrize("policy", ["energy", "baseline"])
    def test_policies_match_scalar_bit_for_bit(self, policy):
        report = fleet_lockstep(
            [lambda s=s: _build(s, policy) for s in (1, 2, 3, 4)],
            n_ticks=N_TICKS,
        )
        assert report.identical, report.to_dict()

    def test_pinned_benchmark_scenario(self):
        report = fleet_oracle_check(n_machines=6, duration_s=DURATION_S)
        assert report.n_machines == 6
        assert report.identical, report.to_dict()

    def test_distinct_seed_ranges(self):
        report = fleet_oracle_check(
            n_machines=3, duration_s=2.0, first_seed=101
        )
        assert report.identical, report.to_dict()

    def test_results_match_standalone_runs(self):
        """engine.results() equals fresh scalar runs of every member."""
        from repro.api import run_simulation

        seeds = (1, 5, 9)
        engine = FleetEngine([_build(s, "energy") for s in seeds])
        engine.run_for(DURATION_S)
        fleet_results = engine.results(DURATION_S)
        for seed, fleet_result in zip(seeds, fleet_results):
            config = _member_config(seed)
            scalar = run_simulation(
                config, steady_mix_workload(4), policy="energy",
                duration_s=DURATION_S, fast_path=True,
            )
            assert _encode(fleet_result.scalar_summary()) == _encode(
                scalar.scalar_summary()
            ), f"seed {seed} diverged"


class TestEligibility:
    def test_pinned_member_is_eligible(self):
        check_fleet_supported(_build(1, "energy"))

    @pytest.mark.parametrize("overrides", [
        {"counter_jitter_sigma": 0.01},
        {"power": PowerModelParams(noise_sigma=0.015)},
        {"throttle": ThrottleConfig(enabled=True)},
    ])
    def test_noise_and_throttle_are_rejected(self, overrides):
        with pytest.raises(FleetUnsupported):
            check_fleet_supported(_build(1, "energy", **overrides))

    def test_heterogeneous_tick_rejected_at_construction(self):
        """Members must share the tick length."""
        odd = _build(2, "energy", tick_ms=20)
        with pytest.raises(FleetUnsupported):
            FleetEngine([_build(1, "energy"), odd])

    def test_divergence_report_names_the_member(self):
        """A seeded mismatch is pinned to its machine index and seed."""
        report = fleet_lockstep(
            [lambda: _build(7, "energy"),
             lambda: _build(8, "energy")],
            n_ticks=50,
        )
        assert report.identical  # sanity: clean run first
        d = report.to_dict()
        assert d["divergences"] == []
        assert d["n_machines"] == 2
        # Twins are built first, so member 1 runs seed 9 against a
        # seed-8 twin.
        seeds = iter((8, 9))
        report = fleet_lockstep(
            [lambda: _build(7, "energy"),
             lambda: _build(next(seeds), "energy")],
            n_ticks=N_TICKS,
        )
        (divergence,) = report.divergences
        assert (divergence.member, divergence.seed) == (1, 9)
        assert divergence.describe().startswith(
            "member 1 (seed 9) diverged at tick "
        )


class TestGeneratedFamilies:
    """Generator-family members mixed into a fleet: the arrival families
    promise fleet eligibility, so their instances must hold byte
    equivalence just like the hand-written steady mix."""

    @pytest.mark.parametrize("family", ["poisson", "bursty", "sporadic"])
    def test_generated_members_match_scalar(self, family):
        from repro.scenarios import GeneratorSpec

        def builder(seed):
            scenario = GeneratorSpec(
                family, {"machine": "smp4", "horizon_s": 3.0}, seed=seed
            ).build()
            return System(
                scenario.config, scenario.workload, policy=scenario.policy
            )

        report = fleet_lockstep(
            [lambda s=s: builder(s) for s in (1, 2)], n_ticks=N_TICKS
        )
        assert report.identical, report.to_dict()

    def test_mixed_fleet_of_families_and_steady_mix(self):
        from repro.scenarios import GeneratorSpec

        def generated(family, seed):
            scenario = GeneratorSpec(
                family, {"machine": "ibm_x445", "horizon_s": 3.0}, seed=seed
            ).build()
            return System(
                scenario.config, scenario.workload, policy=scenario.policy
            )

        report = fleet_lockstep(
            [
                lambda: _build(1, "energy"),
                lambda: generated("poisson", 5),
                lambda: generated("bursty", 5),
            ],
            n_ticks=N_TICKS,
        )
        assert report.identical, report.to_dict()

    def test_adversarial_instances_are_rejected(self):
        from repro.scenarios import GeneratorSpec

        scenario = GeneratorSpec("thermal-adversarial", seed=1).build()
        with pytest.raises(FleetUnsupported, match="[Tt]hrottl"):
            check_fleet_supported(
                System(scenario.config, scenario.workload,
                       policy=scenario.policy)
            )


class TestHousekeepingGate:
    """A member runs its §4.4/§4.5 housekeeping only when a pass could
    move a task (a queue holds at least 2) or a hot check could fire."""

    CADENCES = ("timeslice_ms", "balance_interval_ms",
                "idle_balance_interval_ms", "hot_check_interval_ms",
                "sample_interval_s")

    def test_uncrowded_members_skip_every_pass(self):
        """16 tasks on 16 CPUs at default cadences: nothing can move."""
        from repro.api import run_simulation

        scenario = {k: v for k, v in FLEET_SCENARIO.scenario.items()
                    if k not in self.CADENCES}
        configs = [parse_scenario(dict(scenario, seed=s)).config
                   for s in (1, 2, 3, 4)]
        engine = FleetEngine([
            System(config, steady_mix_workload(4), policy="energy")
            for config in configs
        ])
        engine.run_ticks(N_TICKS)
        assert engine.stats.housekeeping_fires == 0
        for config, result in zip(configs, engine.results(DURATION_S)):
            alone = run_simulation(
                config, steady_mix_workload(4), policy="energy",
                duration_s=DURATION_S, fast_path=True,
            )
            assert _encode(result.scalar_summary()) == _encode(
                alone.scalar_summary()
            ), f"seed {config.seed} diverged"

    @pytest.mark.parametrize("policy", ["energy", "baseline"])
    def test_crowded_members_still_balance(self, policy):
        from repro.scenarios import GeneratorSpec

        def build(seed):
            scenario = GeneratorSpec(
                "poisson",
                {"machine": "ibm_x445", "rate_per_s": 8.0, "horizon_s": 3.0},
                seed=seed,
            ).build()
            return System(scenario.config, scenario.workload, policy=policy)

        seeds = (1, 2, 3, 4)
        report = fleet_lockstep(
            [lambda s=s: build(s) for s in seeds], n_ticks=N_TICKS
        )
        assert report.identical, report.to_dict()
        engine = FleetEngine([build(s) for s in seeds])
        engine.run_ticks(N_TICKS)
        assert sum(r.migrations() for r in engine.results(DURATION_S)) > 0
