"""The fleet engine of run_grid: batching, fallback, cache, journal,
ordering, CLI wiring.

The contract under test: ``engine="fleet"`` (``run_grid_fleet``) is a
drop-in for the pool — same outcome order, same result dicts byte for
byte, same cache keys and journal records — it just routes
fleet-eligible scenario groups through one vectorized engine and
everything else through the pool.
"""

from __future__ import annotations

import json

import pytest

from repro.resilience import SweepJournal
from repro.runner import (
    JobSpec,
    ResultCache,
    execute_spec,
    fleet_grid,
    run_grid,
    run_grid_fleet,
)
from repro.runner.fleet_grid import MIN_FLEET_BATCH, _fleet_candidate

DURATION_S = 3.0

FLEET_SCENARIO_JSON = {
    "name": "fleet-ok",
    "machine": {"preset": "cmp", "packages": 2, "cores": 2, "smt": False},
    "max_power_per_cpu_w": 60.0,
    "timeslice_ms": 2000,
    "balance_interval_ms": 4800,
    "idle_balance_interval_ms": 50,
    "hot_check_interval_ms": 2000,
    "sample_interval_s": 5.0,
    "counter_jitter_sigma": 0.0,
    "power": {"noise_sigma": 0.0},
    "workload": {"builder": "steady_mix", "copies": 2},
    "policy": "energy",
    "duration_s": DURATION_S,
}


def _fleet_spec(seed: int, **scenario_overrides) -> JobSpec:
    data = dict(FLEET_SCENARIO_JSON)
    data.update(scenario_overrides)
    return JobSpec(scenario=data, seed=seed)


def _noisy_spec(seed: int) -> JobSpec:
    return _fleet_spec(seed, name="noisy", power={"noise_sigma": 0.015})


def _encode(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


class TestPartitioning:
    def test_eligible_member_builds(self):
        from repro.fleet import check_fleet_supported
        from repro.system import System

        scenario, reason = _fleet_candidate(_fleet_spec(1))
        assert reason is None
        assert scenario.duration_s == DURATION_S
        check_fleet_supported(
            System(scenario.config, scenario.workload, policy=scenario.policy)
        )

    def test_experiment_spec_goes_to_pool(self):
        spec = JobSpec(experiment="fig9", seed=1, duration_s=2.0)
        _scenario, reason = _fleet_candidate(spec)
        assert "pool" in reason

    def test_noisy_scenario_goes_to_pool(self):
        _scenario, reason = _fleet_candidate(_noisy_spec(1))
        assert "noise_sigma" in reason

    def test_broken_scenario_reports_build_failure(self):
        spec = JobSpec(scenario={"workload": {"builder": "no-such"}}, seed=1)
        _scenario, reason = _fleet_candidate(spec)
        assert "build failed" in reason

    @pytest.mark.parametrize("switches", [
        {"obs": True},
        {"options": {"obs": True}},
        {"options": {"validate": True}},
        {"options": {"fast_path": False}},
    ])
    def test_run_switches_go_to_pool(self, switches):
        spec = _fleet_spec(1, **switches)
        scenario, reason = _fleet_candidate(spec)
        assert scenario is None and "run options" in reason
        report = run_grid_fleet([spec, _fleet_spec(2, **switches)])
        assert all(o.ok for o in report.outcomes)
        assert report.fleet_stats is None

    def test_default_switches_ride_the_fleet(self, tmp_path, capsys):
        """Run switches spelled out at their defaults are the defaults:
        the jobs batch on the fleet and print the pool's bytes."""
        from repro.cli import main

        defaults = dict(FLEET_SCENARIO_JSON, obs=False, options={
            "fast_path": True, "validate": False, "obs": None})
        report = run_grid_fleet(
            [JobSpec(scenario=defaults, seed=seed) for seed in (1, 2)])
        assert report.fleet_stats.members == 2
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(defaults))
        outputs = []
        for engine in ("fleet", "pool"):
            code = main([
                "sweep", "--scenario", str(path), "--seeds", "1..2",
                "--engine", engine, "--no-cache", "--json",
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestStageBuilds:
    """The fleet stage builds a System only for a chunk it batches; every
    other job is built once, by the pool path that runs it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.system import System

        count = [0]
        init = System.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(System, "__init__", counting_init)
        return count

    def test_eligible_and_noisy_grid(self, builds):
        # CI's fleet-smoke grid: four eligible seeds, two noisy ones.
        specs = ([_fleet_spec(seed) for seed in (1, 2, 3, 4)]
                 + [_noisy_spec(seed) for seed in (5, 6)])
        report = run_grid_fleet(specs)
        assert all(o.ok for o in report.outcomes)
        assert report.fleet_stats.members == 4
        assert builds[0] == 6

    def test_throttled_family_builds_once_per_job(self, builds):
        specs = [
            JobSpec(scenario={"generator": {"family": "thermal-adversarial"}},
                    seed=seed, duration_s=0.5)
            for seed in (1, 2, 3)
        ]
        report = run_grid_fleet(specs)
        assert all(o.ok for o in report.outcomes)
        assert report.fleet_stats is None
        assert builds[0] == 3

    def test_lone_eligible_job_builds_once(self, builds):
        report = run_grid_fleet([_fleet_spec(1)])
        assert report.outcomes[0].ok and report.fleet_stats is None
        assert builds[0] == 1

    def test_forced_throttle_policy_skips_the_stage(self, builds):
        spec = _fleet_spec(1, policy="hlt-throttle")
        scenario, reason = _fleet_candidate(spec)
        assert scenario is None and "throttl" in reason
        report = run_grid_fleet([spec, _fleet_spec(1, policy="hlt-throttle",
                                                   name="twin")])
        assert all(o.ok for o in report.outcomes)
        assert report.fleet_stats is None
        assert builds[0] == 2


class TestRunGridFleet:
    def test_matches_execute_spec_byte_for_byte(self):
        specs = [_fleet_spec(seed) for seed in (1, 2, 3)]
        report = run_grid_fleet(specs)
        assert all(o.ok for o in report.outcomes)
        for outcome, spec in zip(report.outcomes, specs):
            assert _encode(outcome.result) == _encode(execute_spec(spec))

    def test_mixed_specs_preserve_input_order(self):
        specs = [
            _fleet_spec(1),
            _noisy_spec(7),
            _fleet_spec(2),
            JobSpec(experiment="fig9", seed=3, duration_s=2.0),
            _fleet_spec(3),
        ]
        report = run_grid_fleet(specs)
        assert [o.spec for o in report.outcomes] == specs
        assert all(o.ok for o in report.outcomes), [
            o.error for o in report.outcomes if not o.ok
        ]
        # the noisy job really ran (noise changes the summary)
        clean = report.outcomes[0].result["summary"]
        noisy = report.outcomes[1].result["summary"]
        assert clean != noisy

    def test_singleton_group_falls_back_to_pool(self):
        assert MIN_FLEET_BATCH == 2
        specs = [_fleet_spec(1)]
        report = run_grid_fleet(specs)
        assert report.outcomes[0].ok
        assert _encode(report.outcomes[0].result) == _encode(
            execute_spec(specs[0])
        )

    def test_fleet_and_pool_agree_end_to_end(self):
        specs = [_fleet_spec(seed) for seed in (4, 5)]
        fleet_report = run_grid_fleet(specs)
        pool_report = run_grid(specs)
        for a, b in zip(fleet_report.outcomes, pool_report.outcomes):
            assert _encode(a.result) == _encode(b.result)

    def test_cache_round_trip_across_engines(self, tmp_path):
        """A pool-written cache entry is a fleet cache hit, and vice
        versa — the spec hash does not depend on the engine."""
        specs = [_fleet_spec(seed) for seed in (1, 2)]
        cache = ResultCache(tmp_path / "cache")
        first = run_grid_fleet(specs, cache=cache)
        assert first.cache_stats.misses == 2
        cache2 = ResultCache(tmp_path / "cache")
        second = run_grid(specs, cache=cache2)
        assert second.cache_stats.hits == 2
        for a, b in zip(first.outcomes, second.outcomes):
            assert _encode(a.result) == _encode(b.result)

    def test_fleet_size_splits_groups(self, monkeypatch):
        monkeypatch.setattr(fleet_grid, "FLEET_SIZE", 2)
        specs = [_fleet_spec(seed) for seed in (1, 2, 3, 4, 5)]
        report = run_grid_fleet(specs)
        assert all(o.ok for o in report.outcomes)
        assert report.fleet_stats.batches == 2  # the fifth rides the pool
        for outcome, spec in zip(report.outcomes, specs):
            assert _encode(outcome.result) == _encode(execute_spec(spec))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            run_grid([_fleet_spec(1)], engine="gpu")


def _mixed_specs() -> list[JobSpec]:
    """Three fleet-eligible jobs and two noisy pool-fallback jobs (1, 3)."""
    return [_fleet_spec(1), _noisy_spec(7), _fleet_spec(2), _noisy_spec(8),
            _fleet_spec(3)]


class TestFallbackAccounting:
    """Pool-fallback jobs of a fleet grid are looked up, cached and
    journaled once, under the caller's indices, as on the pool engine."""

    def test_each_job_is_one_cache_lookup(self, tmp_path):
        specs = _mixed_specs()
        first = run_grid_fleet(specs, cache=ResultCache(tmp_path / "cache"))
        assert all(o.ok for o in first.outcomes)
        assert (first.cache_stats.misses, first.cache_stats.stores) == (5, 5)
        second = run_grid_fleet(specs, cache=ResultCache(tmp_path / "cache"))
        assert (second.cache_stats.hits, second.cache_stats.misses) == (5, 0)

    def test_fallback_jobs_journal_start_then_finish(self, tmp_path):
        specs = _mixed_specs()
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, specs) as journal:
            report = run_grid_fleet(specs, journal=journal)
        assert all(o.ok for o in report.outcomes)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [(r["kind"], r["index"]) for r in records
                  if r["kind"] in ("start", "finish")]
        assert sorted(i for kind, i in events if kind == "finish") == [
            0, 1, 2, 3, 4]
        for pos, (kind, i) in enumerate(events):
            if kind == "finish":
                assert ("start", i) in events[:pos], (i, events)
        fallback = [event for event in events if event[1] in (1, 3)]
        assert fallback == [("start", 1), ("finish", 1),
                            ("start", 3), ("finish", 3)]


class TestCliWiring:
    def test_engine_flag_default_pool(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "fig9"])
        assert args.engine == "pool"

    def test_engine_flag_fleet(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--engine", "fleet", "--scenario", "s.json"]
        )
        assert args.engine == "fleet"
        assert args.scenario == "s.json"

    def test_sweep_scenario_cli_matches_pool(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scn.json"
        path.write_text(json.dumps(FLEET_SCENARIO_JSON))
        outputs = []
        for engine in ("fleet", "pool"):
            code = main([
                "sweep", "--scenario", str(path), "--seeds", "1..3",
                "--engine", engine, "--no-cache", "--json",
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sweep_rejects_scenario_plus_experiment(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "fig9", "--scenario", "x.json"])
