"""Unit tests for the high-level experiment API."""

import pytest

from repro.api import PolicyComparison, compare_policies, run_simulation
from repro.config import SystemConfig
from repro.cpu.topology import MachineSpec
from repro.workloads.generator import mixed_table2_workload, single_program_workload


@pytest.fixture
def config():
    return SystemConfig(machine=MachineSpec.smp(4), max_power_per_cpu_w=60.0, seed=2)


class TestRunSimulation:
    def test_returns_result_with_duration(self, config):
        result = run_simulation(
            config, single_program_workload("aluadd", 2), duration_s=5
        )
        assert result.duration_s == 5
        assert result.system.n_cpus == 4

    def test_throughput_metrics_consistent(self, config):
        result = run_simulation(
            config, single_program_workload("aluadd", 2), duration_s=10
        )
        assert result.fractional_jobs() >= result.jobs_completed
        assert result.throughput_jobs_per_min() == pytest.approx(
            result.fractional_jobs() / 10 * 60
        )

    def test_series_accessors(self, config):
        result = run_simulation(
            config, single_program_workload("aluadd", 1), duration_s=5
        )
        assert len(result.all_thermal_power_series()) == 4
        assert result.thermal_power_series(0).name == "thermal_power.cpu00"
        assert result.temperature_series(0).name == "temperature.pkg0"

    def test_migrations_by_reason_default_total(self, config):
        result = run_simulation(config, mixed_table2_workload(1), duration_s=20)
        total = result.migrations()
        by_reason = sum(
            result.migrations(r)
            for r in ("load_balance", "energy_balance", "hot_task", "exchange")
        )
        assert total == by_reason


class TestComparePolicies:
    def test_comparison_runs_both_policies(self, config):
        cmp = compare_policies(
            config, mixed_table2_workload(1), duration_s=10
        )
        assert isinstance(cmp, PolicyComparison)
        assert cmp.baseline.system.policy_name == "baseline"
        assert cmp.energy_aware.system.policy_name == "energy"

    def test_throughput_gain_formula(self, config):
        cmp = compare_policies(config, mixed_table2_workload(1), duration_s=10)
        expected = (
            cmp.energy_aware.fractional_jobs() / cmp.baseline.fractional_jobs() - 1
        )
        assert cmp.throughput_gain == pytest.approx(expected)

    def test_migration_increase_tuple(self, config):
        cmp = compare_policies(config, mixed_table2_workload(1), duration_s=10)
        base, energy = cmp.migration_increase
        assert base == cmp.baseline.migrations()
        assert energy == cmp.energy_aware.migrations()

    def test_gain_undefined_when_baseline_idle(self, config):
        from repro.api import SimulationResult
        from repro.system import System

        # Zero-duration-like: construct systems but never run them.
        wl = single_program_workload("aluadd", 1)
        idle = SimulationResult(System(config, wl, policy="baseline"), 1.0)
        busy = SimulationResult(System(config, wl, policy="energy"), 1.0)
        cmp = PolicyComparison(baseline=idle, energy_aware=busy)
        with pytest.raises(ValueError, match="no progress"):
            _ = cmp.throughput_gain
