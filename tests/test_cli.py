"""Unit tests for the CLI and the experiment registry."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import REGISTRY, experiment_metrics, run_experiment


class TestRegistry:
    def test_all_evaluation_experiments_registered(self):
        expected = {"fig6-7", "fig7-smt", "table3", "short-tasks", "fig8",
                    "fig9", "fig10", "hotspot"}
        assert set(REGISTRY) == expected

    def test_entries_have_descriptions(self):
        for info in REGISTRY.values():
            assert info.description
            assert callable(info.metrics)
            assert callable(info.render)

    def test_metrics_are_structured_and_render_matches_run(self):
        metrics = experiment_metrics("fig9", duration_s=30.0, seed=3)
        assert metrics["experiment"] == "fig9"
        assert metrics["duration_s"] == 30.0 and metrics["seed"] == 3
        assert metrics["scalars"] and all(
            isinstance(v, float) for v in metrics["scalars"].values()
        )
        assert (REGISTRY["fig9"].render(metrics)
                == run_experiment("fig9", duration_s=30.0, seed=3))

    def test_metrics_functions_are_picklable(self):
        import pickle

        for info in REGISTRY.values():
            assert pickle.loads(pickle.dumps(info.metrics)) is info.metrics

    def test_unknown_experiment_raises_with_choices(self):
        with pytest.raises(KeyError, match="fig9"):
            run_experiment("fig99")

    def test_run_experiment_returns_report(self):
        report = run_experiment("fig9", duration_s=30.0)
        assert "Figure 9" in report
        assert "CPU" in report

    def test_duration_and_seed_forwarded(self):
        short = run_experiment("fig9", duration_s=30.0, seed=3)
        longer = run_experiment("fig9", duration_s=60.0, seed=3)
        assert len(longer.splitlines()) > len(short.splitlines())


class TestCli:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out
        assert "fig7-smt" in out

    def test_run_too_short_for_the_band_is_a_clean_error(self, capsys):
        # The trace samples every second, so a 0.5 s run leaves the
        # Figures 6/7 band no sample after its warm-up.
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig6-7", "--duration", "0.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "0.5 s run" in err

    def test_run_prints_report(self, capsys):
        assert main(["run", "fig9", "--duration", "30"]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_run_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_run_typo_suggests_and_lists_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])
        err = capsys.readouterr().err
        assert "did you mean" in err and "fig9" in err
        for name in REGISTRY:
            assert name in err

    @pytest.mark.parametrize("bad", ["0", "-5", "nan", "inf", "abc"])
    def test_run_rejects_bad_duration_cleanly(self, bad, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig9", "--duration", bad])
        assert "invalid duration" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_hotspot_experiment_via_cli(self, capsys):
        assert main(["run", "hotspot", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "unit" in out and "total" in out

    def test_shipped_scenario_files_parse(self):
        import pathlib

        from repro.scenario import read_scenario

        scenario_dir = (
            pathlib.Path(__file__).parent.parent / "examples" / "scenarios"
        )
        files = sorted(scenario_dir.glob("*.json"))
        assert len(files) >= 3
        for path in files:
            scenario, _options = read_scenario(json.loads(path.read_text()))
            assert scenario.duration_s > 0


class TestRunAll:
    """``run`` with no name, or several, prints one section per name."""

    @pytest.fixture
    def instant_registry(self, monkeypatch):
        # Patch the registry entries so the meta-run is instant.
        import repro.experiments as exp

        calls = []
        for name, info in list(exp.REGISTRY.items()):
            def metrics(duration_s=None, seed=None, n=name):
                calls.append((n, duration_s, seed))
                return {"experiment": n, "scalars": {}}

            render = lambda m: f"report-for-{m['experiment']}"
            monkeypatch.setitem(
                exp.REGISTRY, name,
                exp.ExperimentInfo(name, info.description, metrics, render),
            )
        return calls

    def test_combined_report_contains_every_experiment(
        self, instant_registry, capsys
    ):
        assert main(["run"]) == 0
        expected = "\n\n".join(
            f"===== {name} =====\nreport-for-{name}"
            for name in sorted(REGISTRY)
        )
        assert capsys.readouterr().out == expected + "\n"
        assert [call[0] for call in instant_registry] == sorted(REGISTRY)

    def test_several_names_in_the_given_order(self, instant_registry, capsys):
        assert main(["run", "hotspot", "fig9", "--duration", "5",
                     "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            "===== hotspot =====\nreport-for-hotspot\n\n"
            "===== fig9 =====\nreport-for-fig9\n"
        )
        assert instant_registry == [("hotspot", 5.0, 3), ("fig9", 5.0, 3)]

    def test_one_name_prints_its_report_alone(self, instant_registry, capsys):
        assert main(["run", "fig9"]) == 0
        assert capsys.readouterr().out == "report-for-fig9\n"

    def test_reproduce_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSweepAndBatchCli:
    def test_sweep_parser_accepts_runner_flags(self):
        args = build_parser().parse_args(
            ["sweep", "fig9", "--seeds", "1..4", "--workers", "2",
             "--duration", "30", "--no-cache", "--timeout", "60",
             "--retries", "2", "--json"]
        )
        assert args.command == "sweep"
        assert args.experiment == "fig9"
        assert args.seeds == "1..4"
        assert args.workers == 2
        assert args.duration == 30.0
        assert args.no_cache is True
        assert args.timeout == 60.0
        assert args.retries == 2
        assert args.json is True

    def test_batch_parser_accepts_runner_flags(self):
        args = build_parser().parse_args(
            ["batch", "grid.json", "--workers", "4", "--no-cache"]
        )
        assert args.command == "batch"
        assert args.path == "grid.json"
        assert args.workers == 4 and args.no_cache is True

    def test_sweep_rejects_bad_seed_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "fig9", "--seeds", "4..1", "--no-cache"])
        assert "seed" in capsys.readouterr().err

    def test_sweep_rejects_unknown_experiment_with_suggestion(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "tabel3", "--no-cache"])
        assert "table3" in capsys.readouterr().err

    def test_sweep_end_to_end_caches_and_is_deterministic(self, tmp_path,
                                                          capsys):
        argv = ["sweep", "fig9", "--seeds", "1..2", "--duration", "3",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "2 seeds, mean ± 95% CI" in first.out
        assert "0 hits, 2 misses" in first.err

        assert main(argv + ["--workers", "2"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # byte-identical aggregate
        assert "2 hits, 0 misses" in second.err

    def test_sweep_json_output(self, capsys):
        assert main(["sweep", "fig9", "--seeds", "1,2", "--duration", "3",
                     "--no-cache", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment"] == "fig9"
        assert data["seeds"] == [1, 2]
        assert "migrations" in data["aggregate"]
        assert all(s["n"] == 2 for s in data["aggregate"].values())

    def test_no_cache_skips_cache_reporting(self, capsys):
        assert main(["sweep", "fig9", "--seeds", "1", "--duration", "3",
                     "--no-cache"]) == 0
        assert "cache:" not in capsys.readouterr().err

    def test_batch_end_to_end(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"jobs": [
            {"experiment": "fig9", "seeds": "1..2", "duration_s": 3,
             "label": "tour"},
        ]}))
        assert main(["batch", str(grid), "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "tour: 2 jobs, mean ± 95% CI" in out

    def test_batch_rejects_bad_grid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(SystemExit):
            main(["batch", str(bad), "--no-cache"])
        assert "grid" in capsys.readouterr().err


class TestScenariosCli:
    def test_catalog_lists_every_family(self, capsys):
        from repro.scenarios import family_names

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in family_names():
            assert name in out
        assert "[fleet]" in out and "adversarial" in out

    def test_instantiate_prints_parseable_scenario(self, capsys):
        from repro.scenario import parse_scenario

        assert main(["scenarios", "poisson", "--seed", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "poisson-s3"
        assert len(parse_scenario(data).workload) >= 1

    def test_digest_is_stable_and_seed_sensitive(self, capsys):
        assert main(["scenarios", "bursty", "--seed", "1", "--digest"]) == 0
        first = capsys.readouterr().out
        assert main(["scenarios", "bursty", "--seed", "1", "--digest"]) == 0
        assert capsys.readouterr().out == first
        assert main(["scenarios", "bursty", "--seed", "2", "--digest"]) == 0
        assert capsys.readouterr().out != first

    def test_params_override_round_trips(self, capsys):
        assert main(["scenarios", "sporadic", "--params",
                     '{"n_tasks": 3, "horizon_s": 20.0}']) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["workload"]["tasks"]) >= 3

    def test_unknown_family_errors_with_catalog(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenarios", "zipf"])
        assert "poisson" in capsys.readouterr().err

    def test_bad_params_json_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenarios", "poisson", "--params", "{nope"])
        assert "JSON" in capsys.readouterr().err

    def test_digest_without_family_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenarios", "--digest"])
        assert "family" in capsys.readouterr().err

    def test_sweep_family_end_to_end_deterministic(self, tmp_path, capsys):
        argv = ["sweep", "--family", "poisson", "--family-params",
                '{"machine": "smp2", "horizon_s": 2.0}',
                "--seeds", "1..2", "--duration", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "2 seeds" in first.out

        assert main(argv) == 0  # warm cache, same bytes
        second = capsys.readouterr()
        assert second.out == first.out

    def test_sweep_family_conflicts_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "fig9", "--family", "poisson", "--no-cache"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["sweep", "--family-params", "{}", "--no-cache"])
        assert "--family" in capsys.readouterr().err

    def test_sweep_family_bad_param_value_rejected_up_front(
            self, monkeypatch, capsys):
        import repro.runner

        def no_jobs(*args, **kwargs):
            raise AssertionError("a sweep job ran")

        monkeypatch.setattr(repro.runner, "run_grid", no_jobs)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "poisson", "--family-params",
                  '{"horizon_s": -1}', "--seeds", "1..3", "--no-cache"])
        assert exc.value.code == 2
        assert "horizon_s" in capsys.readouterr().err

    def test_sweep_family_unknown_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--family", "zipf", "--no-cache"])
        assert "poisson" in capsys.readouterr().err
