"""Differential oracles over generated scenarios.

The generator families feed workload shapes the hand-written pinned set
never exercises (open-loop churn, sporadic releases, rotating
affinity), so each family is pushed through the fast-vs-scalar replay
oracle across policies and seeds, and the fleet-eligible families
additionally through fleet/scalar lockstep.  Everything here is byte
equality — a single float diverging on any tick fails.
"""

from __future__ import annotations

import pytest

from repro.fleet import FleetUnsupported, check_fleet_supported
from repro.scenarios import GeneratorSpec, family_by_name, family_names
from repro.system import System
from repro.validate import differential_replay
from repro.validate.fleet import fleet_lockstep

#: Small-machine overrides per family: oracle runs replay every tick
#: twice over, so each instance is kept to a few CPUs and seconds.
SMALL = {
    "poisson": {"machine": "smp4", "rate_per_s": 3.0, "horizon_s": 4.0},
    "bursty": {"machine": "smp4", "base_rate_per_s": 3.0, "horizon_s": 4.0},
    "sporadic": {"machine": "smp4", "n_tasks": 6, "utilization": 2.0,
                 "horizon_s": 6.0},
    "thermal-adversarial": {"machine": "smp4", "hot_jobs": 3, "cool_fill": 4,
                            "rotate_groups": 2, "horizon_s": 4.0},
}

FLEET_ELIGIBLE = [n for n in family_names()
                  if family_by_name(n).fleet_eligible]


def small_spec(family: str, seed: int) -> GeneratorSpec:
    return GeneratorSpec(family, SMALL[family], seed=seed)


class TestFastVsScalar:
    @pytest.mark.parametrize("family", sorted(SMALL))
    @pytest.mark.parametrize("policy", ["energy", "baseline"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_paths_identical(self, family, policy, seed):
        scenario = small_spec(family, seed).build()
        report = differential_replay(
            scenario.config,
            scenario.workload,
            policy=policy,
            duration_s=2.0,
        )
        assert report.identical, report.to_dict()


class TestFleetLockstep:
    def test_declared_eligibility_matches_fleet_check(self):
        """The ``fleet_eligible`` flags are promises about the generated
        configs, not documentation — verify them against the real gate."""
        for family in family_names():
            scenario = small_spec(family, seed=1).build()
            system = System(
                scenario.config, scenario.workload, policy=scenario.policy
            )
            try:
                check_fleet_supported(system)
                supported = True
            except FleetUnsupported:
                supported = False
            assert supported == family_by_name(family).fleet_eligible, family

    @pytest.mark.parametrize("family", sorted(FLEET_ELIGIBLE))
    def test_fleet_matches_scalar_across_seeds(self, family):
        def builder(seed):
            scenario = small_spec(family, seed).build()
            return System(
                scenario.config, scenario.workload, policy=scenario.policy
            )

        report = fleet_lockstep(
            [lambda s=s: builder(s) for s in (1, 2, 3)],
            n_ticks=200,
        )
        assert report.identical, report.to_dict()
