"""The batched thermal step against the scalar specification.

``System._thermal_step_fast`` advances every package's two RC networks
and every logical CPU's thermal-power EWMA in one pass over the
packages, and draws a package's meter noise only when ``noise_sigma``
is non-zero.  The lockstep tests run it per tick against
``_thermal_step`` on packages of more than two logical CPUs (the
loop's general branch) and on packages whose time constants differ,
so an EWMA weight looked up by package instead of by CPU, or a CPU
whose average is not advanced, shows at the first tick it matters.
The draw-rule tests pin which engines touch the ``meter:<pkg>``
streams.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SystemConfig
from repro.core.ewma import thermal_alpha
from repro.cpu.power import PowerModelParams
from repro.cpu.thermal import ThermalParams
from repro.cpu.topology import MachineSpec
from repro.fleet import FleetEngine
from repro.sim.clock import Clock
from repro.system import System
from repro.validate import replay_pair
from repro.workloads.generator import mixed_table2_workload, steady_mix_workload

#: Four two-thread packages (the pair branch) with four time constants.
PAIR_MACHINE = MachineSpec(
    nodes=1, packages_per_node=4, cores_per_package=1, threads_per_core=2
)
CMP_MACHINE = MachineSpec.cmp(packages=2, cores=2, smt=True)
TAUS_S = (1.0, 2.5, 4.0, 7.0)

MACHINES = {
    # Four logical CPUs per package, one time constant.
    "cmp-2x2-smt": (CMP_MACHINE, ThermalParams().with_tau(2.0)),
    # Four logical CPUs per package, two time constants.
    "cmp-2x2-smt-taus": (
        CMP_MACHINE, tuple(ThermalParams().with_tau(t) for t in TAUS_S[:2])
    ),
    # Two logical CPUs per package, four time constants.
    "pairs-taus": (
        PAIR_MACHINE, tuple(ThermalParams().with_tau(t) for t in TAUS_S)
    ),
}


def _config(machine: str, noise_sigma: float, seed: int = 5) -> SystemConfig:
    spec, thermal = MACHINES[machine]
    # A 12 W per-CPU budget on short time constants: hlt-throttle
    # throttles within the first second, so packages go from busy to
    # halted and back while the averages move fast.
    return SystemConfig(
        machine=spec,
        thermal=thermal,
        max_power_per_cpu_w=12.0,
        power=PowerModelParams(noise_sigma=noise_sigma),
        sample_interval_s=0.5,
        seed=seed,
    )


def _meter_states(system: System) -> list[tuple]:
    return [
        system.rng.stream(f"meter:{pkg}").getstate()
        for pkg in range(system.config.machine.n_packages)
    ]


def _fresh_meter_states(system: System) -> list[tuple]:
    return [
        system.rng.fresh(f"meter:{pkg}").getstate()
        for pkg in range(system.config.machine.n_packages)
    ]


class TestFusedThermalLockstep:
    @pytest.mark.parametrize("policy", ["energy", "hlt-throttle"])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.015])
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_paths_identical_per_tick(self, machine, noise_sigma, policy):
        config = _config(machine, noise_sigma)
        fast, scalar = (
            System(config, mixed_table2_workload(1), policy=policy,
                   fast_path=fast_path)
            for fast_path in (True, False)
        )
        report = replay_pair(fast, scalar, n_ticks=300)
        assert report.identical, report.to_dict()
        if policy == "hlt-throttle":
            # The scenario must exercise halting, or the halted-share
            # and idle-sibling inputs go untested.
            assert fast.throttle.average_fraction() > 0.1

    def test_weights_follow_each_cpus_package(self):
        """Each CPU's weight comes from its own package's time constant.
        On the two-tau CMP machine a weight looked up by package index
        differs from the right one, so the lockstep test above sees it
        (on two-thread packages the two lookups coincide)."""
        system = System(
            _config("cmp-2x2-smt-taus", 0.0), mixed_table2_workload(1)
        )
        clock = Clock(system.config.tick_ms)
        clock.advance()
        system.tick(clock)
        topology = system.topology
        alphas = system._ewma_alphas
        assert alphas == [
            thermal_alpha(TAUS_S[topology.package_of(c)], clock.tick_s)
            for c in range(system.n_cpus)
        ]
        by_package = [alphas[p] for p in range(topology.n_packages)]
        by_first_cpu = [
            alphas[topology.cpus_of_package(p)[0]]
            for p in range(topology.n_packages)
        ]
        assert by_package != by_first_cpu

    def test_epoch_bumps_once_per_tick(self):
        system = System(_config("cmp-2x2-smt", 0.0), mixed_table2_workload(1))
        clock = Clock(system.config.tick_ms)
        epochs = []
        for _ in range(5):
            clock.advance()
            before = system.metrics.thermal_epoch
            system._thermal_step_fast(clock)
            epochs.append(system.metrics.thermal_epoch - before)
        assert epochs == [1] * 5


class TestMeterDrawRule:
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_zero_noise_fast_path_leaves_meter_streams_seeded(self, machine):
        system = System(_config(machine, 0.0), mixed_table2_workload(1))
        clock = Clock(system.config.tick_ms)
        for _ in range(200):
            clock.advance()
            system.tick(clock)
        assert _meter_states(system) == _fresh_meter_states(system)

    def test_zero_noise_scalar_path_keeps_every_draw(self):
        """The scalar step is the specification: it draws at any sigma."""
        system = System(
            _config("cmp-2x2-smt", 0.0), mixed_table2_workload(1),
            fast_path=False,
        )
        clock = Clock(system.config.tick_ms)
        for _ in range(3):
            clock.advance()
            system.tick(clock)
        for now, fresh in zip(_meter_states(system), _fresh_meter_states(system)):
            assert now != fresh

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_nonzero_noise_paths_leave_equal_meter_streams(self, machine):
        config = _config(machine, 0.015)
        workload = mixed_table2_workload(1)
        fast = System(config, workload)
        scalar = System(config, workload, fast_path=False)
        report = replay_pair(fast, scalar, n_ticks=200)
        assert report.identical, report.to_dict()
        assert _meter_states(fast) == _meter_states(scalar)
        assert _meter_states(fast) != _fresh_meter_states(fast)

    def test_zero_noise_fleet_member_leaves_meter_streams_seeded(self):
        config = SystemConfig(
            machine=PAIR_MACHINE,
            thermal=MACHINES["pairs-taus"][1],
            power=PowerModelParams(noise_sigma=0.0),
            counter_jitter_sigma=0.0,
            max_power_per_cpu_w=60.0,
        )
        members = [
            System(replace(config, seed=seed), steady_mix_workload(2))
            for seed in (1, 2)
        ]
        engine = FleetEngine(members)
        engine.run_for(2.0)
        engine.sync()
        for member in members:
            assert _meter_states(member) == _fresh_meter_states(member)
