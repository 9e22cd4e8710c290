"""System-level edge cases and robustness tests."""

import pytest

from repro.api import run_simulation
from repro.config import SystemConfig
from repro.cpu.thermal import ThermalParams
from repro.cpu.topology import MachineSpec, Topology
from repro.sim.events import EventKind
from repro.workloads.generator import (
    TaskSpec,
    WorkloadSpec,
    mixed_table2_workload,
    n_copies,
    single_program_workload,
)
from repro.workloads.programs import program


class TestTickGranularity:
    def test_throughput_robust_to_tick_size(self):
        """Halving the tick changes results only marginally."""
        results = {}
        for tick_ms in (5, 10, 20):
            config = SystemConfig(
                machine=MachineSpec.smp(2), max_power_per_cpu_w=100.0,
                tick_ms=tick_ms, seed=9,
            )
            wl = WorkloadSpec("pair", tuple(n_copies("aluadd", 3)))
            results[tick_ms] = run_simulation(
                config, wl, policy="baseline", duration_s=30
            ).fractional_jobs()
        assert results[5] == pytest.approx(results[10], rel=0.03)
        assert results[10] == pytest.approx(results[20], rel=0.03)

    def test_thermal_trajectory_tick_invariant(self):
        temps = {}
        for tick_ms in (5, 20):
            config = SystemConfig(
                machine=MachineSpec.smp(1), max_power_per_cpu_w=100.0,
                tick_ms=tick_ms, seed=9,
                thermal=ThermalParams(r_k_per_w=0.3, c_j_per_k=66.7),
            )
            result = run_simulation(
                config, single_program_workload("bitcnts", 1),
                policy="baseline", duration_s=60,
            )
            temps[tick_ms] = result.temperature_series(0).last()
        assert temps[5] == pytest.approx(temps[20], abs=0.3)

    def test_nonstandard_timeslice(self):
        config = SystemConfig(
            machine=MachineSpec.smp(1), max_power_per_cpu_w=100.0,
            timeslice_ms=50, seed=9,
        )
        wl = WorkloadSpec("pair", tuple(n_copies("aluadd", 2)))
        result = run_simulation(config, wl, policy="baseline", duration_s=10)
        shares = [t.total_busy_s for t in result.system.live_tasks()]
        assert shares[0] == pytest.approx(shares[1], rel=0.1)


class TestSmallMachines:
    def test_single_cpu_machine_runs_both_policies(self):
        for policy in ("baseline", "energy"):
            config = SystemConfig(
                machine=MachineSpec.smp(1), max_power_per_cpu_w=100.0, seed=2
            )
            result = run_simulation(
                config, single_program_workload("aluadd", 2),
                policy=policy, duration_s=10,
            )
            assert result.fractional_jobs() > 0
            assert result.migrations() == 0  # nowhere to go

    def test_two_cpu_smt_only_machine(self):
        """One package, two threads: only an SMT-level domain exists, so
        energy balancing is entirely disabled (§4.7) and only load
        balancing can move tasks."""
        spec = MachineSpec(nodes=1, packages_per_node=1, threads_per_core=2)
        config = SystemConfig(machine=spec, max_power_per_cpu_w=40.0, seed=2)
        result = run_simulation(
            config, mixed_table2_workload(1), policy="energy", duration_s=30
        )
        assert result.migrations("energy_balance") == 0
        assert result.migrations("hot_task") == 0  # sibling never helps


class TestArrivalAndLifecycle:
    def test_staggered_arrivals(self):
        tasks = tuple(
            TaskSpec(program=program("aluadd"), arrival_s=float(i * 2))
            for i in range(4)
        )
        config = SystemConfig(
            machine=MachineSpec.smp(4), max_power_per_cpu_w=100.0, seed=3
        )
        result = run_simulation(
            config, WorkloadSpec("staggered", tasks), duration_s=10
        )
        starts = sorted(
            e.time_ms for e in result.tracer.events_of(EventKind.TASK_START)
        )
        assert len(starts) == 4
        assert starts[1] - starts[0] == pytest.approx(2000, abs=20)

    def test_blocked_task_wakes_on_same_cpu(self):
        config = SystemConfig(
            machine=MachineSpec.smp(4), max_power_per_cpu_w=100.0, seed=3
        )
        result = run_simulation(
            config, single_program_workload("bash", 1), duration_s=20
        )
        blocks = result.tracer.events_of(EventKind.TASK_BLOCK)
        wakes = result.tracer.events_of(EventKind.TASK_WAKE)
        assert blocks and wakes
        # Affinity: each wake lands on the CPU the task blocked on.
        for block, wake in zip(blocks, wakes):
            assert wake.cpu == block.cpu

    def test_inode_table_learns_across_generations(self):
        """fork_new respawns feed the §4.6 hash table: after the first
        generation, new bitcnts tasks are placed with a hot profile."""
        config = SystemConfig(
            machine=MachineSpec.smp(4), max_power_per_cpu_w=100.0, seed=3
        )
        wl = WorkloadSpec(
            "storm",
            (TaskSpec(program=program("bitcnts"), solo_job_s=1.0,
                      respawn="fork_new"),),
        )
        result = run_simulation(config, wl, policy="energy", duration_s=10)
        placement = result.system.policy.placement
        assert placement.known_binaries == 1
        assert placement.initial_power_for(program("bitcnts").inode) == (
            pytest.approx(61.0, rel=0.08)
        )

    def test_exited_tasks_leave_no_dangling_state(self):
        config = SystemConfig(
            machine=MachineSpec.smp(2), max_power_per_cpu_w=100.0, seed=3
        )
        wl = WorkloadSpec(
            "oneshots",
            tuple(
                TaskSpec(program=program("aluadd"), solo_job_s=0.5,
                         respawn="none")
                for _ in range(4)
            ),
        )
        result = run_simulation(config, wl, duration_s=10)
        assert len(result.system.exited_tasks) == 4
        for rq in result.system.runqueues.values():
            assert rq.is_idle
        assert len(result.system.containers) == 0


class TestCmpEndToEnd:
    def test_hot_task_on_cmp_only_crosses_packages(self):
        """§7: on a chip multiprocessor, moving within the package does
        not cool it; every hot-task migration crosses packages."""
        spec = MachineSpec.cmp(packages=2, cores=2, smt=True)
        topology = Topology(spec)
        config = SystemConfig(
            machine=spec,
            max_power_per_cpu_w=10.0,
            thermal=ThermalParams(r_k_per_w=0.30, c_j_per_k=50.0),
            seed=9,
        )
        result = run_simulation(
            config, single_program_workload("bitcnts", 1),
            policy="energy", duration_s=100,
        )
        events = result.migration_events()
        assert len(events) >= 3
        for event in events:
            assert topology.package_of(event.detail["src"]) != (
                topology.package_of(event.detail["dst"])
            )


class TestMixedPrioritiesUnderEnergyPolicy:
    def test_balancing_with_nice_spread_converges(self):
        config = SystemConfig(
            machine=MachineSpec.smp(4), max_power_per_cpu_w=60.0, seed=5
        )
        tasks = []
        for i, name in enumerate(
            ("bitcnts", "memrw", "aluadd", "pushpop") * 2
        ):
            tasks.append(TaskSpec(program=program(name), nice=(i % 3) * 5 - 5))
        result = run_simulation(
            config, WorkloadSpec("nice-mix", tuple(tasks)),
            policy="energy", duration_s=60,
        )
        ratios = [
            result.system.metrics.runqueue_power_ratio(c) for c in range(4)
        ]
        assert max(ratios) - min(ratios) < 0.2
        assert result.fractional_jobs() > 0


class TestSharedMachineTables:
    """Machines on one spec share its topology and domain hierarchy,
    which are read-only; everything seeded stays per machine."""

    @staticmethod
    def _system(seed, machine=None):
        from repro.system import System

        config = SystemConfig(
            machine=machine or MachineSpec.ibm_x445(),
            max_power_per_cpu_w=60.0,
            seed=seed,
        )
        return System(config, single_program_workload("bitcnts", 2))

    def test_one_spec_shares_topology_and_hierarchy(self):
        a, b = self._system(1), self._system(2)
        assert a.topology is b.topology
        assert a.hierarchy is b.hierarchy
        other = self._system(1, MachineSpec.ibm_x445(smt=False))
        assert other.topology is not a.topology
        assert other.hierarchy is not a.hierarchy

    def test_seeds_still_calibrate_differently(self):
        a, b = self._system(1), self._system(2)
        assert a.estimator.base_w != b.estimator.base_w
        assert a.estimator.weights_nj.tobytes() != b.estimator.weights_nj.tobytes()
        again = self._system(1)
        assert again.estimator.base_w == a.estimator.base_w
        assert again.estimator.weights_nj.tobytes() == a.estimator.weights_nj.tobytes()

    def test_shared_tables_are_read_only(self):
        system = self._system(1)
        assert isinstance(system.topology.cpus, tuple)
        domain = system.hierarchy.chain(0)[0]
        with pytest.raises(TypeError):
            domain._group_of[0] = None
        with pytest.raises(TypeError):
            system.hierarchy._chains[0] = ()

    def test_checkpoint_round_trip_keeps_the_hierarchy(self):
        import pickle

        system = self._system(1)
        restored = pickle.loads(pickle.dumps(system))
        chain = restored.hierarchy.chain(0)
        assert chain == system.hierarchy.chain(0)
        assert chain[0] is restored.hierarchy.chain(8)[0]
        assert restored.policy.hierarchy is restored.hierarchy
        assert chain[0].local_group(8) == system.hierarchy.chain(0)[0].local_group(8)
