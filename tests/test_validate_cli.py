"""The ``validate`` subcommand, ``run-file --validate``, and the runner.

The runner is exercised through the CLI where possible (that is the
surface CI uses); direct ``run_validation`` calls cover the breach
classification the happy path can't reach.
"""

import json
import math

import pytest

from repro.cli import build_parser, main
from repro.scenarios.pinned import scenario_by_name
from repro.validate import FaultPlan
from repro.validate.runner import (
    SCHEMA,
    format_validation_report,
    run_validation,
)

FAST_SCENARIO = "mixed-8cpu-nosmt"


@pytest.fixture(scope="module")
def payload():
    """One short single-scenario matrix shared across assertions."""
    return run_validation(
        [scenario_by_name(FAST_SCENARIO)], duration_s=1.0
    )


class TestParser:
    def test_validate_subcommand_registered(self):
        args = build_parser().parse_args(["validate"])
        assert args.command == "validate"
        assert args.duration == 5.0  # "short"
        assert args.sample_every == 1
        assert not args.skip_faults

    def test_duration_keywords(self):
        parser = build_parser()
        assert parser.parse_args(
            ["validate", "--duration", "full"]
        ).duration is None
        assert parser.parse_args(
            ["validate", "--duration", "2.5"]
        ).duration == 2.5
        with pytest.raises(SystemExit):
            parser.parse_args(["validate", "--duration", "-1"])

    def test_scenarios_accumulate(self):
        args = build_parser().parse_args(
            ["validate", "--scenario", "throttle-hlt",
             "--scenario", "mixed-16cpu"]
        )
        assert args.scenarios == ["throttle-hlt", "mixed-16cpu"]

    def test_run_file_gains_validate_flag(self):
        args = build_parser().parse_args(["run-file", "x.json", "--validate"])
        assert args.validate


class TestValidateCommand:
    def test_clean_matrix_exits_zero(self, capsys):
        code = main(["validate", "--scenario", FAST_SCENARIO,
                     "--duration", "1", "--skip-faults"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean:ok" in out
        assert "oracle:identical" in out

    def test_json_output_carries_schema(self, capsys):
        code = main(["validate", "--scenario", FAST_SCENARIO,
                     "--duration", "1", "--skip-faults", "--json"])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == 1  # the CLI report envelope
        assert envelope["generated_by"].startswith("repro ")
        payload = envelope["payload"]
        assert payload["schema"] == SCHEMA
        assert payload["ok"] is True
        assert payload["fault_plans"] == []

    def test_output_writes_report_artifact(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["validate", "--scenario", FAST_SCENARIO,
                     "--duration", "1", "--skip-faults",
                     "--output", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == SCHEMA
        assert [s["name"] for s in payload["scenarios"]] == [FAST_SCENARIO]

    def test_fast_path_divergence_fails(self, monkeypatch, capsys):
        # One ulp on one package temperature, on the fast path only: the
        # per-tick oracle must report the scenario as diverged.
        from repro.system import System

        thermal_step_fast = System._thermal_step_fast

        def nudged(self, clock):
            thermal_step_fast(self, clock)
            rc = self.true_rc[0]
            rc._temp_c = math.nextafter(rc._temp_c, math.inf)
            self._pkg_temp_c[0] = rc._temp_c

        monkeypatch.setattr(System, "_thermal_step_fast", nudged)
        code = main(["validate", "--scenario", FAST_SCENARIO,
                     "--duration", "1", "--skip-faults"])
        out = capsys.readouterr().out
        assert code == 1
        assert "oracle:DIVERGED" in out
        assert f"{FAST_SCENARIO}/oracle: fast and scalar paths diverged" in out

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--scenario", "nope"])
        assert "nope" in capsys.readouterr().err

    def test_bad_sample_every_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--scenario", FAST_SCENARIO,
                  "--sample-every", "0"])

    def test_write_golden_round_trips(self, tmp_path, capsys):
        code = main(["validate", "--scenario", FAST_SCENARIO,
                     "--write-golden", str(tmp_path)])
        assert code == 0
        written = list(tmp_path.glob("*.json"))
        assert [p.stem for p in written] == [FAST_SCENARIO]
        assert json.loads(written[0].read_text())["schema"] == "repro-golden/1"


class TestRunFileValidate:
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "machine": {"preset": "smp", "n_cpus": 2},
            "max_power_per_cpu_w": 60.0,
            "seed": 3,
            "workload": {"builder": "single_program", "program": "bitcnts",
                         "n": 2},
            "policy": "energy",
            "duration_s": 1.0,
        }))
        return path

    def test_clean_scenario_exits_zero(self, tmp_path, capsys):
        code = main(["run-file", str(self.scenario_file(tmp_path)),
                     "--validate"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["policy"] == "energy"
        assert "violation" not in captured.err

    def test_without_flag_no_validator_runs(self, tmp_path, capsys):
        code = main(["run-file", str(self.scenario_file(tmp_path))])
        assert code == 0


class TestRunValidation:
    def test_payload_shape(self, payload):
        assert payload["schema"] == SCHEMA
        assert payload["ok"] is True and payload["breaches"] == []
        (entry,) = payload["scenarios"]
        assert entry["name"] == FAST_SCENARIO
        assert set(entry["clean"]) == {"fast", "scalar"}
        for side in entry["clean"].values():
            assert side["n_violations"] == 0
        assert entry["oracle"]["identical"] is True
        assert entry["metamorphic"]["applicable"] is False  # smt=False
        assert {f["plan"] for f in entry["faults"]} == {
            "counter-noise", "counter-corrupt", "migration-drops",
            "thermal-drift",
        }

    def test_fault_runs_classify_expected_detections(self, payload):
        (entry,) = payload["scenarios"]
        by_plan = {f["plan"]: f for f in entry["faults"]}
        corrupt = by_plan["counter-corrupt"]
        assert not corrupt["crashed"]
        assert corrupt["expected_detections"] > 0
        assert corrupt["expected_invariants"] == ["counter-bounds"]
        assert corrupt["unexpected_violations"] == []
        drift = by_plan["thermal-drift"]
        assert drift["expected_invariants"] == ["temperature-rc-bounds"]
        for plan in ("counter-noise", "migration-drops"):
            assert by_plan[plan]["unexpected_violations"] == []

    def test_unexpected_violation_is_a_breach(self):
        # A thermal fault whose plan *claims* only migration drops, so
        # the rc-bounds detections count as unexpected.
        class SneakyPlan(FaultPlan):
            def fault_kinds(self):
                return frozenset({"migration_drop"})

        sneaky = SneakyPlan(
            name="sneaky", seed=104, temp_drift_c_per_tick=0.5
        )
        assert sneaky.fault_kinds() == {"migration_drop"}
        payload = run_validation(
            [scenario_by_name(FAST_SCENARIO)], duration_s=1.0,
            fault_plans=[sneaky],
        )
        assert payload["ok"] is False
        assert any("fault-insensitive" in b for b in payload["breaches"])

    def test_report_formatting_mentions_breaches(self):
        fake = {
            "schema": SCHEMA,
            "ok": False,
            "breaches": ["scenario/clean-fast: invariant(s) violated"],
            "fault_plans": [],
            "scenarios": [],
        }
        text = format_validation_report(fake)
        assert "1 breach(es):" in text

    def test_empty_scenario_list_rejected(self):
        with pytest.raises(ValueError):
            run_validation([])
