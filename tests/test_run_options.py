"""RunOptions: the bundled run-parameter API and its compatibility."""

import pytest

from repro.api import RunOptions, run_simulation
from repro.config import SystemConfig
from repro.cpu.topology import MachineSpec
from repro.scenario import parse_scenario
from repro.workloads.generator import mixed_table2_workload


def smp_config(n=2, **kwargs):
    defaults = dict(machine=MachineSpec.smp(n), max_power_per_cpu_w=60.0,
                    seed=3)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestConstruction:
    def test_all_fields_default_to_none(self):
        options = RunOptions()
        assert options.policy is None
        assert options.duration_s is None
        assert options.fast_path is None

    def test_unknown_policy_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown policy"):
            RunOptions(policy="turbo")


class TestRunSimulation:
    def test_options_equivalent_to_kwargs(self):
        config = smp_config()
        workload = mixed_table2_workload(1)
        via_kwargs = run_simulation(
            config, workload, policy="energy", duration_s=2.0
        )
        via_options = run_simulation(
            config, workload,
            options=RunOptions(policy="energy", duration_s=2.0),
        )
        assert (via_kwargs.scalar_summary()
                == via_options.scalar_summary())

    def test_mixing_kwargs_and_options_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            run_simulation(
                smp_config(), mixed_table2_workload(1), duration_s=2.0,
                options=RunOptions(policy="energy"),
            )

    def test_old_kwargs_still_accepted(self):
        result = run_simulation(
            smp_config(), mixed_table2_workload(1), policy="baseline",
            duration_s=1.0, validate=True,
        )
        assert result.system.policy_name == "baseline"
        assert result.violations == []


class TestScenarioRun:
    def scenario(self):
        return parse_scenario({
            "machine": {"preset": "smp", "n_cpus": 2},
            "workload": {"builder": "mixed_table2", "copies": 1},
            "policy": "baseline",
            "duration_s": 2.0,
        })

    def test_scenario_fills_unset_option_fields(self):
        result = self.scenario().run(options=RunOptions(validate=True))
        assert result.system.policy_name == "baseline"
        assert result.duration_s == 2.0
        assert result.system.validator is not None

    def test_options_override_scenario_fields(self):
        result = self.scenario().run(
            options=RunOptions(policy="energy", duration_s=1.0)
        )
        assert result.system.policy_name == "energy"
        assert result.duration_s == 1.0

    def test_mixing_options_with_flags_rejected(self):
        with pytest.raises(ValueError, match="options"):
            self.scenario().run(validate=True, options=RunOptions())


class TestRunnerSpecs:
    def test_scenario_options_key(self):
        from repro.runner.executor import execute_spec
        from repro.runner.spec import JobSpec

        spec = JobSpec(
            scenario={
                "machine": {"preset": "smp", "n_cpus": 2},
                "workload": {"builder": "mixed_table2", "copies": 1},
                "policy": "energy",
                "options": {"fast_path": False, "validate": True},
            },
            duration_s=1.0,
        )
        out = execute_spec(spec)
        assert out["scalars"]["average_utilization"] > 0

    def test_unknown_option_key_rejected(self):
        from repro.runner.executor import execute_spec
        from repro.runner.spec import JobSpec

        spec = JobSpec(
            scenario={
                "machine": {"preset": "smp", "n_cpus": 2},
                "workload": {"builder": "mixed_table2", "copies": 1},
                "options": {"turbo": True},
            },
            duration_s=1.0,
        )
        with pytest.raises(ValueError, match="turbo"):
            execute_spec(spec)

    def test_fast_and_scalar_option_results_identical(self):
        import json

        from repro.runner.executor import execute_spec
        from repro.runner.spec import JobSpec

        base = {
            "machine": {"preset": "smp", "n_cpus": 2},
            "workload": {"builder": "mixed_table2", "copies": 1},
            "policy": "dvfs-reactive",
        }
        fast = execute_spec(JobSpec(scenario=base, duration_s=1.0))
        scalar = execute_spec(JobSpec(
            scenario={**base, "options": {"fast_path": False}},
            duration_s=1.0,
        ))
        assert (json.dumps(fast["scalars"], sort_keys=True)
                == json.dumps(scalar["scalars"], sort_keys=True))
