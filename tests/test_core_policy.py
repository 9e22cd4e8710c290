"""Unit tests for the policy facades (paper §5 integration points)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy_balance import EnergyBalanceConfig, EnergyBalancer
from repro.core.policy import (
    BaselinePolicy,
    EnergyAwareConfig,
    EnergyAwarePolicy,
)
from repro.cpu.topology import MachineSpec
from repro.sched.load_balance import LoadBalanceConfig, load_balance_pass
from tests.conftest import Harness, make_task


def baseline(harness: Harness) -> BaselinePolicy:
    return BaselinePolicy(
        harness.hierarchy,
        harness.runqueues,
        lambda t, s, d, r: harness.migrate(t, s, d, r),
    )


def energy(harness: Harness, config: EnergyAwareConfig | None = None) -> EnergyAwarePolicy:
    return EnergyAwarePolicy(
        harness.metrics,
        harness.hierarchy,
        harness.runqueues,
        lambda t, s, d, r: harness.migrate(t, s, d, r),
        config,
    )


@pytest.fixture
def smp4():
    return Harness(MachineSpec.smp(4), max_power_w=60.0)


class TestBaselinePolicy:
    def test_places_on_least_loaded(self, smp4):
        smp4.add_task(0, 45.0)
        smp4.add_task(1, 45.0)
        policy = baseline(smp4)
        assert policy.place_new_task(make_task()) in (2, 3)

    def test_never_does_active_migration(self, smp4):
        smp4.add_task(0, 60.0, running=True)
        smp4.set_thermal(0, 59.9)
        assert not baseline(smp4).check_active_migration(0)

    def test_balances_load_only(self, smp4):
        hot = smp4.add_task(0, 60.0)
        smp4.add_task(0, 60.0)
        smp4.add_task(0, 25.0)
        smp4.add_task(0, 25.0)
        baseline(smp4).periodic_balance(1)
        assert smp4.runqueues[1].nr_running == 2
        assert all(r == "load_balance" for (_, _, _, r) in smp4.migrations)

    def test_ignores_energy_imbalance(self, smp4):
        """Equal lengths but wildly different powers: vanilla does
        nothing — the gap the paper's policy fills."""
        smp4.add_task(0, 60.0)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 25.0)
        smp4.add_task(1, 25.0)
        smp4.set_thermal(0, 55.0)
        smp4.set_thermal(1, 20.0)
        assert baseline(smp4).periodic_balance(1) == 0

    def test_first_timeslice_hook_is_noop(self, smp4):
        policy = baseline(smp4)
        policy.on_first_timeslice(make_task(), 50.0)  # must not raise

    def test_initial_profile_is_default(self, smp4):
        assert baseline(smp4).initial_profile_power(make_task()) == pytest.approx(45.0)


class TestEnergyAwarePolicy:
    def test_placement_uses_inode_table(self, smp4):
        policy = energy(smp4)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 45.0)
        smp4.add_task(2, 30.0)
        smp4.add_task(3, 45.0)
        task = make_task(inode=77)
        policy.on_first_timeslice(task, 60.0)
        assert policy.initial_profile_power(make_task(inode=77)) == 60.0

    def test_balance_does_energy_and_load(self, smp4):
        smp4.add_task(0, 60.0, running=True)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 25.0, running=True)
        smp4.add_task(1, 25.0)
        smp4.set_thermal(0, 55.0)
        smp4.set_thermal(1, 20.0)
        moved = energy(smp4).periodic_balance(1)
        assert moved > 0
        reasons = {r for (_, _, _, r) in smp4.migrations}
        assert "energy_balance" in reasons

    def test_active_migration_triggers(self, smp4):
        smp4.add_task(0, 60.0, running=True)
        smp4.set_thermal(0, 59.9)
        smp4.set_thermal(1, 10.0)
        assert energy(smp4).check_active_migration(0)


class TestAblationSwitches:
    def test_disable_energy_balance_falls_back_to_vanilla(self, smp4):
        config = EnergyAwareConfig(enable_energy_balance=False)
        smp4.add_task(0, 60.0, running=True)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 25.0, running=True)
        smp4.add_task(1, 25.0)
        smp4.set_thermal(0, 55.0)
        smp4.set_thermal(1, 20.0)
        assert energy(smp4, config).periodic_balance(1) == 0

    def test_disable_hot_migration(self, smp4):
        config = EnergyAwareConfig(enable_hot_migration=False)
        smp4.add_task(0, 60.0, running=True)
        smp4.set_thermal(0, 59.9)
        smp4.set_thermal(1, 10.0)
        assert not energy(smp4, config).check_active_migration(0)

    def test_disable_placement_falls_back_to_least_loaded(self, smp4):
        config = EnergyAwareConfig(enable_placement=False)
        policy = energy(smp4, config)
        smp4.add_task(0, 60.0)
        smp4.add_task(1, 45.0)
        smp4.add_task(2, 30.0)
        # CPU 3 idle: least-loaded placement always chooses it, even for
        # a hot task that energy placement would have sent elsewhere.
        assert policy.place_new_task(make_task(power_w=60.0)) == 3


class TestUncrowdedPassMovesNothing:
    """``periodic_balance`` moves a task only off a queue holding at
    least 2 tasks; the fleet engine skips members on that basis."""

    CONFIGS = (
        EnergyBalanceConfig(),
        EnergyBalanceConfig(use_rq_condition=False),
        EnergyBalanceConfig(use_thermal_condition=False),
        EnergyBalanceConfig(
            thermal_margin_ratio=0.0, rq_margin_ratio=0.0, min_gain_ratio=0.0,
            load=LoadBalanceConfig(min_imbalance=1),
        ),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        cpus=st.lists(
            st.tuples(
                st.sampled_from(["empty", "running", "queued"]),
                st.floats(1.0, 60.0),
                st.floats(0.0, 40.0),
            ),
            min_size=16, max_size=16,
        )
    )
    def test_no_pass_moves_a_task(self, cpus):
        # built here: hypothesis rejects function-scoped fixtures
        x445 = Harness(MachineSpec.ibm_x445(smt=True), max_power_w=20.0)
        for cpu, (state, profile_w, thermal_w) in enumerate(cpus):
            x445.set_thermal(cpu, thermal_w)
            if state != "empty":
                x445.add_task(cpu, profile_w, running=state == "running")
        for config in self.CONFIGS:
            balancer = EnergyBalancer(
                x445.metrics, x445.hierarchy, x445.runqueues,
                lambda t, s, d, r: x445.migrate(t, s, d, r), config,
            )
            for cpu in x445.runqueues:
                assert balancer.balance(cpu) == 0
            assert balancer.moves_by_level == {}
        for min_imbalance in (1, 2):
            config = LoadBalanceConfig(min_imbalance=min_imbalance)
            for cpu in x445.runqueues:
                assert load_balance_pass(
                    cpu, x445.hierarchy, x445.runqueues, x445.migrate, config
                ) == 0
        assert x445.migrations == []
