"""Unit tests for trace-driven task behaviours."""

import random

import pytest

from repro.api import run_simulation
from repro.config import SystemConfig
from repro.cpu.power import GroundTruthPower, PowerModelParams
from repro.cpu.topology import MachineSpec
from repro.workloads.generator import TaskSpec, WorkloadSpec
from repro.workloads.traces import PowerTrace, TraceSegment

CSV = """duration_s,power_w
5.0,45.0
2.0,61.0
5.0,38.0
"""


class TestTraceParsing:
    def test_from_pairs(self):
        trace = PowerTrace.from_pairs([(5.0, 45.0), (2.0, 61.0)])
        assert trace.total_duration_s == pytest.approx(7.0)

    def test_from_csv(self):
        trace = PowerTrace.from_csv(CSV)
        assert len(trace.segments) == 3
        assert trace.segments[1] == TraceSegment(2.0, 61.0)

    def test_mean_power_weighted(self):
        trace = PowerTrace.from_csv(CSV)
        expected = (5 * 45 + 2 * 61 + 5 * 38) / 12
        assert trace.mean_power_w() == pytest.approx(expected)

    def test_csv_needs_exact_columns(self):
        with pytest.raises(ValueError, match="columns"):
            PowerTrace.from_csv("time,watts\n1,2\n")

    def test_csv_needs_rows(self):
        with pytest.raises(ValueError, match="rows"):
            PowerTrace.from_csv("duration_s,power_w\n")

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            TraceSegment(0.0, 45.0)
        with pytest.raises(ValueError):
            TraceSegment(1.0, -1.0)
        with pytest.raises(ValueError):
            PowerTrace(())


class TestTraceToProgram:
    def test_phases_match_segments(self):
        spec = PowerTrace.from_csv(CSV).to_program("svc", inode=9001)
        assert spec.kind == "cyclic"
        assert [p.total_power_w for p in spec.phases] == [45.0, 61.0, 38.0]

    def test_single_segment_is_static(self):
        spec = PowerTrace.from_pairs([(5.0, 50.0)]).to_program("flat", 9002)
        assert spec.kind == "static"

    def test_non_looping_holds_last_phase(self):
        spec = PowerTrace.from_csv(CSV).to_program("once", 9003, looping=False)
        assert spec.phases[-1].mean_duration_s >= 1e8

    def test_behavior_reproduces_trace_powers(self):
        power = GroundTruthPower(PowerModelParams())
        spec = PowerTrace.from_csv(CSV).to_program(
            "svc", 9004, wobble_sigma=0.0
        )
        behavior = spec.build_behavior(power, 2.2e9, random.Random(0))
        seen = set()
        for _ in range(200):
            mix = behavior.step(0.1)
            total = 20.0 + power.dynamic_power_w(mix.rates_per_cycle, 2.2e9)
            seen.add(round(total))
        assert seen == {45, 61, 38}

    def test_rejects_power_the_solver_cannot_reach(self):
        """A 2,020 W segment (2,000 W dynamic) used to build silently, with
        a ground-truth package power of ~3.1 kW."""
        power = GroundTruthPower(PowerModelParams())
        spec = PowerTrace.from_pairs([(10.0, 2020.0)]).to_program("svc", 9100)
        with pytest.raises(ValueError, match="2000.0 W dynamic target"):
            spec.build_behavior(power, 2.2e9, random.Random(0))

    def test_rejects_power_below_base(self):
        power = GroundTruthPower(PowerModelParams())
        spec = PowerTrace.from_pairs([(1.0, 15.0)]).to_program("low", 9005)
        with pytest.raises(ValueError, match="below base"):
            spec.build_behavior(power, 2.2e9, random.Random(0))


class TestTraceScheduling:
    def test_trace_task_runs_and_profiles(self):
        spec = PowerTrace.from_csv(CSV).to_program("svc", 9006)
        config = SystemConfig(
            machine=MachineSpec.smp(1), max_power_per_cpu_w=100.0, seed=6
        )
        wl = WorkloadSpec("trace", (TaskSpec(program=spec),))
        result = run_simulation(config, wl, policy="energy", duration_s=36)
        task = result.system.live_tasks()[0]
        # Profile converges near the trace's duration-weighted mean.
        assert task.profile_power_w == pytest.approx(
            PowerTrace.from_csv(CSV).mean_power_w(), rel=0.25
        )
        assert result.estimation_error() < 0.10
