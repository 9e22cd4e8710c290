"""Unit tests for JSON scenario parsing and the run-file CLI path."""

import json

import pytest

from repro.scenario import Scenario, load_scenario, parse_scenario


BASE = {
    "machine": {"preset": "smp", "n_cpus": 2},
    "max_power_per_cpu_w": 60.0,
    "seed": 3,
    "workload": {"builder": "single_program", "program": "aluadd", "n": 2},
    "policy": "baseline",
    "duration_s": 5,
}


class TestMachineParsing:
    def test_x445_preset(self):
        scenario = parse_scenario(
            {**BASE, "machine": {"preset": "ibm_x445", "smt": False}}
        )
        assert scenario.config.machine.n_cpus == 8

    def test_smp_preset(self):
        scenario = parse_scenario(BASE)
        assert scenario.config.machine.n_cpus == 2

    def test_cmp_preset(self):
        scenario = parse_scenario(
            {**BASE, "machine": {"preset": "cmp", "packages": 2, "cores": 2}}
        )
        assert scenario.config.machine.n_cpus == 4

    def test_explicit_shape(self):
        scenario = parse_scenario(
            {**BASE, "machine": {"nodes": 2, "packages_per_node": 2,
                                  "threads_per_core": 2}}
        )
        assert scenario.config.machine.n_cpus == 8

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            parse_scenario({**BASE, "machine": {"preset": "mainframe"}})


class TestWorkloadParsing:
    def test_builders(self):
        cases = [
            ({"builder": "mixed_table2", "copies": 2}, 12),
            ({"builder": "single_program", "program": "memrw", "n": 3}, 3),
            ({"builder": "homogeneity", "memrw": 4, "pushpop": 2,
              "bitcnts": 4}, 10),
            ({"builder": "short_tasks", "slots": 6, "job_s": 0.5}, 6),
        ]
        for spec, expected_len in cases:
            scenario = parse_scenario({**BASE, "workload": spec})
            assert len(scenario.workload) == expected_len, spec

    def test_explicit_task_list(self):
        workload = {
            "tasks": [
                {"program": "bitcnts", "power_cap_w": 35.0, "nice": 5},
                {"program": "memrw", "cpus_allowed": [0],
                 "arrival_s": 2.0, "respawn": "none"},
            ]
        }
        scenario = parse_scenario({**BASE, "workload": workload})
        first, second = scenario.workload.tasks
        assert first.power_cap_w == 35.0
        assert first.nice == 5
        assert second.cpus_allowed == (0,)
        assert second.respawn == "none"

    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError, match="builder"):
            parse_scenario({**BASE, "workload": {"builder": "chaos"}})


class TestThermalAndThrottleParsing:
    def test_per_package_thermal(self):
        scenario = parse_scenario(
            {**BASE,
             "max_power_per_cpu_w": None,
             "temp_limit_c": 38.0,
             "thermal": [{"r_k_per_w": 0.3}, {"r_k_per_w": 0.2}]}
        )
        assert scenario.config.package_max_power_w(0) == pytest.approx(13 / 0.3)

    def test_wrong_thermal_count_rejected(self):
        with pytest.raises(ValueError, match="per-package"):
            parse_scenario(
                {**BASE, "thermal": [{"r_k_per_w": 0.3}] * 3}
            )

    def test_throttle_options(self):
        scenario = parse_scenario(
            {**BASE,
             "throttle": {"enabled": True, "scope": "package", "mode": "dvfs"}}
        )
        assert scenario.config.throttle.enabled
        assert scenario.config.throttle.mode == "dvfs"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            parse_scenario({**BASE, "policy": "quantum"})


class TestRunning:
    def test_scenario_runs(self):
        scenario = parse_scenario(BASE)
        assert isinstance(scenario, Scenario)
        result = scenario.run()
        assert result.fractional_jobs() > 0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(BASE))
        scenario = load_scenario(path)
        assert scenario.duration_s == 5

    def test_cli_run_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(BASE))
        assert main(["run-file", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["policy"] == "baseline"
        assert summary["machine"]["n_cpus"] == 2

    def test_cli_run_file_missing_file_is_a_usage_error(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["run-file", str(missing)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: cannot load scenario '{missing}'" in err
        assert "Traceback" not in err

    def test_cli_run_file_unknown_policy_is_a_usage_error(self, tmp_path,
                                                          capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**BASE, "policy": "quantum"}))
        with pytest.raises(SystemExit) as excinfo:
            main(["run-file", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error: cannot load scenario" in err
        assert "unknown policy 'quantum'" in err


class TestMalformedInput:
    """A malformed file ends in one ``repro: error:`` line (exit 2),
    never a traceback."""

    @pytest.mark.parametrize("command,document", [
        (["run-file"], {**BASE, "duration_s": -1}),
        (["explain", "--file"], {**BASE, "duration_s": -1}),
        (["run-file"], [1, 2]),
        (["trace", "--file"], [1, 2]),
        (["run-file"], {**BASE, "machine": "ibm_x445"}),
        (["batch", "--no-cache"], [1, 2]),
    ], ids=["run-file-negative-duration", "explain-negative-duration",
            "run-file-list", "trace-list", "run-file-machine-string",
            "batch-list"])
    def test_one_error_line(self, command, document, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as excinfo:
            main([*command, str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("duration", [0, float("nan"), float("inf"),
                                          None, "soon"])
    def test_parse_scenario_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError, match="duration_s"):
            parse_scenario({**BASE, "duration_s": duration})


class TestCadenceAndNoiseKnobs:
    """The optional SystemConfig pass-through keys (fleet scenarios pin
    the noise sigmas to zero through these)."""

    def test_defaults_unchanged_when_omitted(self):
        config = parse_scenario(BASE).config
        assert config.tick_ms == 10
        assert config.timeslice_ms == 100
        assert config.balance_interval_ms == 240
        assert config.counter_jitter_sigma == 0.01
        assert config.power.noise_sigma == 0.015

    def test_cadence_keys_pass_through(self):
        scenario = parse_scenario({
            **BASE,
            "tick_ms": 20,
            "timeslice_ms": 2000,
            "balance_interval_ms": 4800,
            "idle_balance_interval_ms": 60,
            "hot_check_interval_ms": 2000,
            "sample_interval_s": 5.0,
            "smt_thread_factor": 0.7,
        })
        config = scenario.config
        assert config.tick_ms == 20
        assert config.timeslice_ms == 2000
        assert config.balance_interval_ms == 4800
        assert config.idle_balance_interval_ms == 60
        assert config.hot_check_interval_ms == 2000
        assert config.sample_interval_s == 5.0
        assert config.smt_thread_factor == 0.7

    def test_noise_keys_pass_through(self):
        scenario = parse_scenario({
            **BASE,
            "counter_jitter_sigma": 0.0,
            "power": {"noise_sigma": 0.0},
        })
        assert scenario.config.counter_jitter_sigma == 0.0
        assert scenario.config.power.noise_sigma == 0.0

    def test_steady_mix_builder(self):
        scenario = parse_scenario({
            **BASE,
            "workload": {"builder": "steady_mix", "copies": 2,
                         "wobble_interval_s": 20.0},
        })
        assert scenario.workload.name == "steady-mix-x2"
        assert len(scenario.workload.tasks) == 8  # 4 programs x 2 copies
        assert all(
            t.program.wobble_interval_s == 20.0 for t in scenario.workload.tasks
        )
