"""Unit tests for the §4.3 calculation parameters."""

import pytest

from repro.cpu.topology import MachineSpec
from tests.conftest import Harness


@pytest.fixture
def smp2():
    return Harness(MachineSpec.smp(2), max_power_w=60.0, initial_thermal_w=10.0)


class TestRunqueuePower:
    def test_empty_queue_is_zero(self, smp2):
        assert smp2.metrics.runqueue_power_w(0) == 0.0

    def test_average_of_profiles(self, smp2):
        smp2.add_task(0, 60.0)
        smp2.add_task(0, 40.0)
        assert smp2.metrics.runqueue_power_w(0) == pytest.approx(50.0)

    def test_includes_running_task(self, smp2):
        smp2.add_task(0, 60.0, running=True)
        smp2.add_task(0, 40.0)
        assert smp2.metrics.runqueue_power_w(0) == pytest.approx(50.0)

    def test_reacts_immediately_to_migration(self, smp2):
        """§4.3: runqueue power reflects migrations instantly."""
        hot = smp2.add_task(0, 60.0)
        smp2.add_task(0, 40.0)
        before = smp2.metrics.runqueue_power_w(0)
        smp2.migrate(hot, 0, 1)
        assert smp2.metrics.runqueue_power_w(0) == pytest.approx(40.0)
        assert smp2.metrics.runqueue_power_w(1) == pytest.approx(60.0)
        assert before != smp2.metrics.runqueue_power_w(0)

    def test_ratio_divides_by_max_power(self, smp2):
        smp2.add_task(0, 30.0)
        assert smp2.metrics.runqueue_power_ratio(0) == pytest.approx(0.5)


class TestThermalPower:
    def test_initial_value(self, smp2):
        assert smp2.metrics.thermal_power_w(0) == 10.0

    def test_update_moves_slowly(self, smp2):
        smp2.metrics.update_thermal(0, 60.0, dt_s=0.01)
        value = smp2.metrics.thermal_power_w(0)
        assert 10.0 < value < 10.1  # tau = 20 s, so a tick barely moves it

    def test_ratio(self, smp2):
        smp2.set_thermal(0, 30.0)
        assert smp2.metrics.thermal_power_ratio(0) == pytest.approx(0.5)


class TestWouldBeRatio:
    def test_empty_queue(self, smp2):
        assert smp2.metrics.would_be_ratio(0, 60.0) == pytest.approx(1.0)

    def test_with_existing_tasks(self, smp2):
        smp2.add_task(0, 40.0)
        # (40 + 50) / 2 / 60
        assert smp2.metrics.would_be_ratio(0, 50.0) == pytest.approx(0.75)


class TestPerCpuMaxPower:
    def test_heterogeneous_max_power(self):
        h = Harness(MachineSpec.smp(2))
        board = h.metrics
        assert board.max_power_w(0) == board.max_power_w(1)

    def test_mapping_max_power(self):
        from repro.core.metrics import MetricsBoard
        from repro.cpu.topology import Topology
        from repro.sched.runqueue import RunQueue

        topo = Topology(MachineSpec.smp(2))
        rqs = {c: RunQueue(c) for c in range(2)}
        board = MetricsBoard(topo, rqs, tau_s=20.0, max_power_w={0: 40.0, 1: 60.0})
        assert board.max_power_w(0) == 40.0
        assert board.max_power_w(1) == 60.0
        # The limit is mirrored onto the runqueue as the paper stores it.
        assert rqs[0].max_power_w == 40.0

    def test_rejects_non_positive_max_power(self):
        from repro.core.metrics import MetricsBoard
        from repro.cpu.topology import Topology
        from repro.sched.runqueue import RunQueue

        topo = Topology(MachineSpec.smp(2))
        rqs = {c: RunQueue(c) for c in range(2)}
        with pytest.raises(ValueError, match="maximum power"):
            MetricsBoard(topo, rqs, tau_s=20.0, max_power_w={0: 40.0, 1: 0.0})


class TestSmtAggregates:
    @pytest.fixture
    def smt(self):
        return Harness(MachineSpec.ibm_x445(smt=True), max_power_w=20.0)

    def test_package_thermal_sum(self, smt):
        smt.set_thermal(0, 30.0)
        smt.set_thermal(8, 5.0)
        assert smt.metrics.package_thermal_sum_w(0) == pytest.approx(35.0)
        assert smt.metrics.package_thermal_sum_w(8) == pytest.approx(35.0)

    def test_package_max_power_sums_shares(self, smt):
        assert smt.metrics.package_max_power_w(0) == pytest.approx(40.0)

    def test_no_smt_sum_is_own_thermal(self):
        h = Harness(MachineSpec.ibm_x445(smt=False), max_power_w=40.0)
        h.set_thermal(0, 25.0)
        assert h.metrics.package_thermal_sum_w(0) == pytest.approx(25.0)
        assert h.metrics.package_max_power_w(0) == pytest.approx(40.0)

    def test_cmp_package_sum_covers_all_cores(self):
        """§7 extension: the package aggregate spans every thread of
        every core on the chip, not just the SMT siblings of one core."""
        h = Harness(MachineSpec.cmp(packages=2, cores=2, smt=True), max_power_w=10.0)
        pkg0_cpus = h.topology.cpus_of_package(0)
        assert len(pkg0_cpus) == 4
        for i, cpu in enumerate(pkg0_cpus):
            h.set_thermal(cpu, 5.0 + i)
        assert h.metrics.package_thermal_sum_w(pkg0_cpus[0]) == pytest.approx(
            5.0 + 6.0 + 7.0 + 8.0
        )
        assert h.metrics.package_max_power_w(pkg0_cpus[0]) == pytest.approx(40.0)


class TestGroupAggregates:
    def test_group_avg_runqueue_ratio(self, smp2):
        smp2.add_task(0, 60.0)  # ratio 1.0
        # CPU 1 idle: ratio 0.
        assert smp2.metrics.group_avg_runqueue_ratio([0, 1]) == pytest.approx(0.5)

    def test_group_avg_thermal_ratio(self, smp2):
        smp2.set_thermal(0, 60.0)
        smp2.set_thermal(1, 0.0)
        assert smp2.metrics.group_avg_thermal_ratio([0, 1]) == pytest.approx(0.5)

    def test_system_avg(self, smp2):
        smp2.add_task(0, 60.0)
        smp2.add_task(1, 30.0)
        assert smp2.metrics.system_avg_runqueue_ratio() == pytest.approx(0.75)
