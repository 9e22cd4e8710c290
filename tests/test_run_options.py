"""Run parameters: one spelling per entry point, one reader of a job's
run switches."""

import dataclasses
import inspect
import json

import pytest

from repro.api import RunOptions, run_simulation
from repro.config import SystemConfig
from repro.cpu.topology import MachineSpec
from repro.scenario import Scenario, parse_scenario, read_run_options
from repro.system import System
from repro.workloads.generator import mixed_table2_workload


def smp_config(n=2, **kwargs):
    defaults = dict(machine=MachineSpec.smp(n), max_power_per_cpu_w=60.0,
                    seed=3)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestConstruction:
    def test_three_switches_with_real_defaults(self):
        names = [field.name for field in dataclasses.fields(RunOptions)]
        assert names == ["fast_path", "validate", "obs"]
        assert RunOptions() == RunOptions(fast_path=True, validate=False,
                                          obs=False)


class TestSignatures:
    def test_run_simulation_takes_run_parameters_by_keyword(self):
        params = inspect.signature(run_simulation).parameters
        assert "options" not in params
        assert [p.name for p in params.values()
                if p.kind is p.KEYWORD_ONLY] == [
            "policy", "policy_config", "duration_s", "fast_path",
            "validate", "obs",
        ]
        with pytest.raises(TypeError):
            run_simulation(smp_config(), mixed_table2_workload(1), "energy")

    def test_scenario_run_takes_only_options(self):
        assert list(inspect.signature(Scenario.run).parameters) == [
            "self", "options"]

    def test_system_has_no_tracer_parameter(self):
        assert "tracer" not in inspect.signature(System).parameters

    def test_checkpointed_run_takes_a_scenario_and_options(self):
        from repro.resilience import run_simulation_checkpointed

        params = inspect.signature(run_simulation_checkpointed).parameters
        assert list(params) == ["scenario", "checkpoint_path", "options",
                                "checkpoint_every_s", "on_checkpoint"]
        assert [p.name for p in params.values()
                if p.kind is p.KEYWORD_ONLY] == [
            "options", "checkpoint_every_s", "on_checkpoint"]
        assert params["options"].default == RunOptions()


class TestRunSimulation:
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


class TestReadRunOptions:
    @pytest.mark.parametrize("keys, expected", [
        ({}, RunOptions()),
        ({"obs": True}, RunOptions(obs=True)),
        ({"options": {"obs": True}}, RunOptions(obs=True)),
        ({"obs": True, "options": {"obs": False}}, RunOptions(obs=True)),
        ({"options": {"fast_path": None, "validate": None, "obs": None}},
         RunOptions()),
        ({"options": {"fast_path": False, "validate": True}},
         RunOptions(fast_path=False, validate=True)),
    ])
    def test_spellings(self, keys, expected):
        data = {"policy": "energy", **keys}
        assert read_run_options(data) == expected
        assert data == {"policy": "energy"}

    @pytest.mark.parametrize("options", [{"turbo": True}, ["fast_path"]])
    def test_bad_options_rejected(self, options):
        with pytest.raises(ValueError, match="option"):
            read_run_options({"options": options})

    def test_batch_checks_option_keys_before_running(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{
            "scenario": {
                "machine": {"preset": "smp", "n_cpus": 2},
                "workload": {"builder": "mixed_table2", "copies": 1},
                "options": {"turbo": True},
            },
            "seeds": [1],
            "duration_s": 1.0,
        }]))
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(grid), "--no-cache"])
        assert exc.value.code == 2
        assert "turbo" in capsys.readouterr().err


#: A scenario file that spells all three switches off their defaults.
SWITCHED_FILE = {
    "machine": {"preset": "smp", "n_cpus": 2},
    "workload": {"builder": "mixed_table2", "copies": 1},
    "duration_s": 0.5,
    "options": {"validate": True, "fast_path": False},
    "obs": True,
}


class TestFileSwitches:
    """Every command that runs a scenario file runs it with the file's
    switches; ``run-file --validate`` and the observer ``trace`` and
    ``explain`` need are OR-ed onto them."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []
        run = Scenario.run

        def recording_run(self, options=RunOptions()):
            seen.append(options)
            return run(self, options)

        monkeypatch.setattr(Scenario, "run", recording_run)
        return seen

    @pytest.mark.parametrize("command", [
        ["run-file"],
        ["trace", "--format", "metrics", "--file"],
        ["explain", "--file"],
    ], ids=["run-file", "trace", "explain"])
    def test_file_switches_reach_the_run(self, command, seen, tmp_path,
                                         capsys):
        from repro.cli import main

        path = tmp_path / "switched.json"
        path.write_text(json.dumps(SWITCHED_FILE))
        assert main([*command, str(path)]) == 0
        assert seen == [RunOptions(fast_path=False, validate=True, obs=True)]

    @pytest.mark.parametrize("command, expected", [
        (["run-file", "--validate"], RunOptions(validate=True)),
        (["trace", "--format", "metrics", "--file"], RunOptions(obs=True)),
        (["explain", "--file"], RunOptions(obs=True)),
    ], ids=["run-file", "trace", "explain"])
    def test_command_switches_join_a_plain_file(self, command, expected,
                                                seen, tmp_path, capsys):
        from repro.cli import main

        plain = {key: value for key, value in SWITCHED_FILE.items()
                 if key not in ("options", "obs")}
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(plain))
        assert main([*command, str(path)]) == 0
        assert seen == [expected]


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
