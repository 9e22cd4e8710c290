"""Unit tests for JSON scenario parsing and the run-file CLI path."""

import dataclasses
import json
import pathlib

import pytest

from repro.api import RunOptions
from repro.scenario import Scenario, parse_scenario, read_scenario

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples" / "scenarios")
    .glob("*.json")
)


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
        from repro.cli import _load_scenario_file, build_parser

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**BASE, "obs": True}))
        scenario, options = _load_scenario_file(build_parser(), path)
        assert scenario.duration_s == 5
        assert options == RunOptions(obs=True)

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


#: ``sweep`` over seeds 1..3 of the scenario file appended to it.
SWEEP = ["sweep", "--seeds", "1..3", "--no-cache", "--scenario"]

INF = float("inf")


def _mixed(copies) -> dict:
    return {**BASE, "workload": {"builder": "mixed_table2", "copies": copies}}


def _grid(**entry) -> list:
    return [{"scenario": BASE, "seeds": "1..3", **entry}]


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
        (["run-file"], {**BASE, "workload": "mixed"}),
        (["run-file"], {**BASE, "throttle": "hlt"}),
        (["run-file"], {**BASE, "power": 5}),
        (SWEEP, [1, 2]),
        (SWEEP, {**BASE, "machine": {"preset": "ibm_x999"}}),
        (SWEEP, {**BASE, "duration_s": -1}),
        (["batch", "--no-cache"],
         [{"scenario": {**BASE, "machine": {"preset": "ibm_x999"}},
           "seeds": "1..3"}]),
        (["batch", "--no-cache"],
         [{"scenario": {**BASE, "duration_s": -1}, "seeds": "1..3"}]),
        (["run-file"], _mixed(None)),
        (["run-file"], {**BASE, "seed": None}),
        (["run-file"], {**BASE, "thermal": {"r_k_per_w": None}}),
        (["run-file"], {**BASE, "workload": {
            "tasks": [{"program": "memrw", "cpus_allowed": 1}]}}),
        (["run-file"], _mixed(INF)),
        (["run-file"], {**BASE, "seed": INF}),
        (["run-file"], {**BASE, "tick_ms": INF}),
        (["run-file"], {**BASE, "max_power_per_cpu_w": "x"}),
        (["batch", "--no-cache"], _grid(seeds=None)),
        (["batch", "--no-cache"], _grid(duration_s=None)),
        (["batch", "--no-cache"], _grid(durations=5)),
        (["batch", "--no-cache"], _grid(overrides=[1])),
        (SWEEP, _mixed(None)),
        (["trace", "--file"], {**BASE, "seed": None}),
        (["explain", "--file"], {**BASE, "tick_ms": INF}),
        (["batch", "--no-cache"],
         [{"experiment": "nope", "seeds": 1, "duration_s": 1}]),
        (["batch", "--no-cache"],
         [{"experiment": 5, "seeds": 1, "duration_s": 1}]),
        (["batch", "--no-cache"],
         [{"experiment": ["fig9"], "seeds": 1, "duration_s": 1}]),
        (["batch", "--no-cache"],
         [{"experiment": "fig9", "seeds": 1, "duration_s": INF}]),
    ], ids=["run-file-negative-duration", "explain-negative-duration",
            "run-file-list", "trace-list", "run-file-machine-string",
            "batch-list", "run-file-workload-string",
            "run-file-throttle-string", "run-file-power-number",
            "sweep-list", "sweep-unknown-preset", "sweep-negative-duration",
            "batch-unknown-preset", "batch-negative-duration",
            "run-file-null-copies", "run-file-null-seed",
            "run-file-null-thermal", "run-file-int-cpus-allowed",
            "run-file-infinite-copies", "run-file-infinite-seed",
            "run-file-infinite-tick", "run-file-string-max-power",
            "batch-null-seeds", "batch-null-duration", "batch-int-durations",
            "batch-list-overrides", "sweep-null-copies", "trace-null-seed",
            "explain-infinite-tick", "batch-unknown-experiment",
            "batch-int-experiment", "batch-list-experiment",
            "batch-infinite-experiment-duration"])
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
        assert "[1/" not in err  # no job started

    def test_grid_wrapper_key_is_named(self, tmp_path, capsys):
        """``{"jobs": [...]}`` holds nothing else: a grid-level
        ``workers`` would otherwise be dropped and the batch run at one
        worker."""
        from repro.cli import main

        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "jobs": [{"experiment": "fig9", "seeds": [1], "duration_s": 1}],
            "workers": 4,
        }))
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--no-cache", str(path)])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1
        assert "workers" in errors[0]

    @pytest.mark.parametrize("key,value", [
        ("workload", "mixed"), ("workload", ["mixed"]),
        ("throttle", "hlt"), ("power", 5),
        ("thermal", 0.3), ("thermal", [0.3, 0.3]),
        ("workload", {"tasks": "memrw"}), ("workload", {"tasks": ["memrw"]}),
    ])
    def test_parse_scenario_rejects_non_object_blocks(self, key, value):
        with pytest.raises(ValueError):
            parse_scenario({**BASE, key: value})

    @pytest.mark.parametrize("duration", [0, float("nan"), float("inf"),
                                          None, "soon"])
    def test_parse_scenario_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError, match="duration_s"):
            parse_scenario({**BASE, "duration_s": duration})


class TestBooleanSwitches:
    """A switch is ``true``, ``false`` or ``null`` (the default): a
    string such as ``"false"`` or a number would otherwise read as
    truthy or falsy and flip it without a message."""

    @pytest.mark.parametrize("document,key", [
        ({**BASE, "options": {"validate": "false"}}, "validate"),
        ({**BASE, "options": {"fast_path": 0}}, "fast_path"),
        ({**BASE, "options": {"obs": 1}}, "obs"),
        ({**BASE, "obs": "no"}, "obs"),
        ({**BASE, "options": []}, "options"),
        ({**BASE, "options": 0}, "options"),
        ({**BASE, "machine": {"preset": "ibm_x445", "smt": "false"}}, "smt"),
        ({**BASE, "machine": {"preset": "cmp", "smt": 1}}, "smt"),
        ({**BASE, "throttle": {"enabled": "false"}}, "enabled"),
    ], ids=["validate-string", "fast-path-zero", "options-obs-one",
            "obs-string", "options-list", "options-zero", "x445-smt-string",
            "cmp-smt-one", "throttle-enabled-string"])
    def test_non_boolean_is_an_error_naming_the_key(self, document, key,
                                                    tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(ValueError, match=f"'{key}'"):
            read_scenario(document)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as excinfo:
            main(["run-file", str(path)])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1
        assert f"'{key}'" in errors[0]

    def test_null_keeps_each_default(self):
        scenario, options = read_scenario({
            **BASE,
            "machine": {"preset": "ibm_x445", "smt": None},
            "throttle": {"enabled": None},
            "options": None,
            "obs": None,
        })
        assert scenario.config.machine.smt_enabled
        assert not scenario.config.throttle.enabled
        assert options == RunOptions()


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


class TestStrictKeys:
    """A key no block reads is an error naming it, not a silent default."""

    def test_misspelt_duration_is_rejected(self):
        with pytest.raises(ValueError, match="duraton_s"):
            parse_scenario({**BASE, "duraton_s": 10})

    @pytest.mark.parametrize("block,value,message", [
        ("machine", {"preset": "smp", "n_cpus": 2, "smt": True},
         "unknown machine keys: ['smt']"),
        ("machine", {"preset": "ibm_x445", "n_cpus": 8},
         "unknown machine keys: ['n_cpus']"),
        ("machine", {"preset": "cmp", "n_cpus": 4},
         "unknown machine keys: ['n_cpus']"),
        ("machine", {"nodes": 1, "n_cpus": 2},
         "unknown machine keys: ['n_cpus']"),
        ("workload", {"builder": "mixed_table2", "copies": 1, "n": 2},
         "unknown workload keys: ['n']"),
        ("workload", {"tasks": [{"program": "memrw"}], "copies": 1},
         "unknown workload keys: ['copies']"),
        ("workload", {"tasks": [{"program": "memrw", "cpu": 1}]},
         "unknown task keys: ['cpu']"),
        ("throttle", {"enabled": True, "level": 2},
         "unknown throttle keys: ['level']"),
        ("power", {"noise_sigma": 0.0, "noise": 0.0},
         "unknown power keys: ['noise']"),
        ("thermal", {"r_k_per_w": 0.3, "ambient": 20.0},
         "unknown thermal keys: ['ambient']"),
        ("thermal", [{"r_k_per_w": 0.3}, {"ambient": 20.0}],
         "unknown thermal keys: ['ambient']"),
    ])
    def test_each_block_names_its_unknown_key(self, block, value, message):
        with pytest.raises(ValueError) as excinfo:
            parse_scenario({**BASE, block: value})
        assert str(excinfo.value) == message

    def test_generated_document_keeps_the_rule(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            parse_scenario({"generator": {"family": "poisson"}, "bogus": 1})

    def test_name_is_accepted_unread(self):
        scenario = parse_scenario({**BASE, "name": "label"})
        assert scenario == parse_scenario(BASE)

    @pytest.mark.parametrize("switch", [{"obs": True},
                                        {"options": {"validate": True}}])
    def test_switches_are_read_scenario_keys(self, switch):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            parse_scenario({**BASE, **switch})
        scenario, options = read_scenario({**BASE, **switch})
        assert scenario == parse_scenario(BASE)
        assert options != RunOptions()

    def test_read_scenario_leaves_its_argument_alone(self):
        document = {**BASE, "obs": True, "options": {"fast_path": False}}
        before = json.dumps(document, sort_keys=True)
        read_scenario(document)
        assert json.dumps(document, sort_keys=True) == before

    def test_one_helper_keeps_every_message(self):
        from repro.runner.grid import expand_entry
        from repro.runner.spec import JobSpec
        from repro.scenario import read_run_options
        from repro.scenarios import GeneratorSpec

        for call, message in [
            (lambda: JobSpec.from_dict({"bogus": 1}),
             "unknown job-spec keys: ['bogus']"),
            (lambda: expand_entry({"experiment": "fig9", "bogus": 1}),
             "unknown grid-entry keys: ['bogus']"),
            (lambda: GeneratorSpec.from_dict({"family": "poisson",
                                              "bogus": 1}),
             "unknown generator keys: ['bogus']"),
            (lambda: read_run_options({"options": {"bogus": 1}}),
             "unknown scenario option keys: ['bogus']"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message


class TestShippedExamples:
    """Every ``examples/scenarios`` file reads and runs (test_cli checks
    that the files are there)."""

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
    def test_example_runs_for_one_second(self, path):
        scenario, options = read_scenario(json.loads(path.read_text()))
        result = dataclasses.replace(scenario, duration_s=1.0).run(options)
        assert result.duration_s == 1.0
        assert result.scalar_summary()["average_utilization"] > 0
