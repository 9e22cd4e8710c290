"""End-to-end tests asserting the paper's headline behaviours on
shortened versions of the §6 experiments.  The full-length runs live in
``benchmarks/``; these are fast sanity versions wired into CI."""

import numpy as np
import pytest

from repro.analysis.stats import curve_band
from repro.api import compare_policies, run_simulation
from repro.config import SystemConfig
from repro.cpu.throttle import ThrottleConfig
from repro.cpu.topology import MachineSpec
from repro.experiments import (
    fig6_config,
    fig8_config,
    hot_task_config,
    table3_config,
)
from repro.workloads.generator import (
    mixed_table2_workload,
    single_program_workload,
)


class TestEnergyBalancingShape:
    """Figures 6/7 in miniature."""

    @pytest.fixture(scope="class")
    def runs(self):
        config = fig6_config(smt=False, seed=7)
        wl = mixed_table2_workload(3)
        return {
            pol: run_simulation(config, wl, policy=pol, duration_s=240)
            for pol in ("baseline", "energy")
        }

    def test_balancing_narrows_the_band(self, runs):
        base = curve_band(runs["baseline"], skip_s=60.0)
        energy = curve_band(runs["energy"], skip_s=60.0)
        assert energy["mean_width_w"] < base["mean_width_w"] / 2

    def test_balancing_lowers_the_peak(self, runs):
        base = curve_band(runs["baseline"], skip_s=60.0)
        energy = curve_band(runs["energy"], skip_s=60.0)
        assert energy["peak_thermal_power_w"] < base["peak_thermal_power_w"]

    def test_balancing_costs_more_migrations(self, runs):
        assert runs["energy"].migrations() > runs["baseline"].migrations()

    def test_throughput_not_hurt_without_throttling(self, runs):
        """Without temperature control the extra migrations are noise."""
        gain = (
            runs["energy"].fractional_jobs() / runs["baseline"].fractional_jobs() - 1
        )
        assert abs(gain) < 0.05


class TestHotTaskTourShape:
    """Figure 9 in miniature."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(
            hot_task_config(seed=3), single_program_workload("bitcnts", 1),
            policy="energy", duration_s=120,
        )

    def test_task_migrates_repeatedly(self, result):
        assert len(result.migration_events()) >= 4

    def test_never_to_smt_sibling(self, result):
        for event in result.migration_events():
            src, dst = event.detail["src"], event.detail["dst"]
            assert abs(src - dst) != 8, f"sibling migration {src}->{dst}"

    def test_never_across_node_boundary(self, result):
        def node(cpu):
            return 0 if cpu % 8 < 4 else 1

        for event in result.migration_events():
            src, dst = event.detail["src"], event.detail["dst"]
            assert node(src) == node(dst), f"inter-node migration {src}->{dst}"

    def test_all_moves_are_hot_task_migrations(self, result):
        reasons = {e.detail["reason"] for e in result.migration_events()}
        assert reasons == {"hot_task"}


class TestThrottlingAvoidance:
    """Table 3 / §6.4 in miniature."""

    def test_hot_migration_beats_throttling_for_single_task(self):
        config = SystemConfig(
            machine=MachineSpec.ibm_x445(smt=True),
            max_power_per_cpu_w=20.0,
            throttle=ThrottleConfig(enabled=True, scope="package"),
            seed=5,
        )
        cmp = compare_policies(
            config, single_program_workload("bitcnts", 1), duration_s=150
        )
        # The paper: 76 % more throughput at a 40 W package limit.
        assert cmp.throughput_gain > 0.4
        # The baseline throttled; energy-aware essentially did not.
        base_fraction = cmp.baseline.average_throttle_fraction()
        energy_fraction = cmp.energy_aware.average_throttle_fraction()
        assert base_fraction > 0.01
        assert energy_fraction < base_fraction / 3

    def test_energy_balancing_reduces_throttling_under_heterogeneous_cooling(self):
        cmp = compare_policies(table3_config(seed=11), mixed_table2_workload(6),
                               duration_s=180)
        assert (
            cmp.energy_aware.average_throttle_fraction()
            < cmp.baseline.average_throttle_fraction()
        )
        assert cmp.throughput_gain > 0.02  # paper: +4.7 %

    def test_homogeneous_workload_gains_nothing(self):
        """§6.3's corner case: all-identical tasks leave the scheduler
        no room to redirect power."""
        cmp = compare_policies(
            fig8_config(seed=13), single_program_workload("pushpop", 18),
            duration_s=120,
        )
        assert abs(cmp.throughput_gain) < 0.03


class TestEstimatorClaims:
    def test_estimation_and_temperature_errors(self):
        """§3.2 (<10 % energy) and §4.2 (<1 K temperature) together."""
        config = SystemConfig(
            machine=MachineSpec.ibm_x445(smt=True),
            max_power_per_cpu_w=60.0,
            seed=21,
        )
        result = run_simulation(config, mixed_table2_workload(6), duration_s=90)
        assert result.estimation_error() < 0.10
        assert result.max_temperature_error_k < 1.0
