"""Tests for the parallel runner: specs, cache, executor, grid files."""

import json
import time

import pytest

from repro.analysis.report import format_scalar_summaries
from repro.analysis.stats import summarize_scalars, t_critical_95
from repro.runner import (
    JobSpec,
    ResultCache,
    code_salt,
    execute_spec,
    expand_grid,
    load_grid,
    parse_seeds,
    run_grid,
    sweep_specs,
)


# Module-level run functions: picklable by name, so the process pool can
# ship them to workers (fork or spawn alike).
def _double(spec):
    return {"seed": spec.seed, "scalars": {"value": float(spec.seed) * 2}}


def _sleepy(spec):
    time.sleep(1.0)
    return {"scalars": {"value": 1.0}}


def _boom(spec):
    raise RuntimeError(f"always fails (seed {spec.seed})")


def _suicide(spec):
    import os

    if spec.seed == 2:
        os._exit(1)  # hard worker death -> BrokenProcessPool
    return {"seed": spec.seed, "scalars": {"value": float(spec.seed)}}


class _Flaky:
    """Fails the first ``fail_times`` calls, then succeeds (serial only)."""

    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError("transient")
        return {"scalars": {"value": 1.0}}


class TestJobSpec:
    def test_hash_is_stable_and_content_keyed(self):
        a = JobSpec(experiment="fig9", duration_s=30.0, seed=3)
        b = JobSpec(experiment="fig9", duration_s=30.0, seed=3)
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 64

    @pytest.mark.parametrize("other", [
        JobSpec(experiment="fig9", duration_s=30.0, seed=4),
        JobSpec(experiment="fig9", duration_s=31.0, seed=3),
        JobSpec(experiment="fig8", duration_s=30.0, seed=3),
        JobSpec(experiment="fig9", seed=3),
    ])
    def test_hash_differs_when_content_differs(self, other):
        base = JobSpec(experiment="fig9", duration_s=30.0, seed=3)
        assert base.content_hash() != other.content_hash()

    def test_dict_roundtrip(self):
        spec = JobSpec(scenario={"workload": {"builder": "mixed_table2"}},
                       duration_s=10.0, seed=2,
                       overrides={"temp_limit_c": 40.0})
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec()
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec(experiment="fig9", scenario={"workload": {}})

    def test_overrides_only_for_scenarios(self):
        with pytest.raises(ValueError, match="overrides"):
            JobSpec(experiment="fig9", overrides={"seed": 1})

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="positive"):
            JobSpec(experiment="fig9", duration_s=0.0)

    def test_label_names_the_run(self):
        spec = JobSpec(experiment="fig9", duration_s=30.0, seed=3)
        assert spec.label == "fig9[seed=3,duration=30s]"


class TestParseSeeds:
    def test_range_is_inclusive(self):
        assert parse_seeds("1..4") == (1, 2, 3, 4)

    def test_single_and_list_forms(self):
        assert parse_seeds(7) == (7,)
        assert parse_seeds("7") == (7,)
        assert parse_seeds("1,3,5") == (1, 3, 5)
        assert parse_seeds([2, 4]) == (2, 4)

    @pytest.mark.parametrize("bad", ["", "a..b", "4..1", "1,x", "one"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_seeds(bad)

    def test_sweep_specs_expand_seeds(self):
        specs = sweep_specs("fig9", "5..7", duration_s=20.0)
        assert [s.seed for s in specs] == [5, 6, 7]
        assert all(s.experiment == "fig9" and s.duration_s == 20.0
                   for s in specs)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = JobSpec(experiment="fig9", seed=1)
        assert cache.get(spec) is None
        cache.put(spec, {"scalars": {"x": 1.0}})
        assert cache.get(spec) == {"scalars": {"x": 1.0}}
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.stores == 1

    def test_stale_salt_invalidates(self, tmp_path):
        spec = JobSpec(experiment="fig9", seed=1)
        old = ResultCache(root=tmp_path, salt="old-code")
        old.put(spec, {"scalars": {"x": 1.0}})
        new = ResultCache(root=tmp_path, salt="new-code")
        assert new.get(spec) is None
        assert new.stats.misses == 1
        # Storing under the new salt overwrites the stale entry in place.
        new.put(spec, {"scalars": {"x": 2.0}})
        assert new.get(spec) == {"scalars": {"x": 2.0}}
        assert new.path_for(spec) == old.path_for(spec)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = JobSpec(experiment="fig9", seed=1)
        cache.put(spec, {"scalars": {}})
        cache.path_for(spec).write_text("{truncated")
        assert cache.get(spec) is None

    def test_preserves_scalar_order(self, tmp_path):
        """Aggregate tables follow metric definition order, cached or not."""
        cache = ResultCache(root=tmp_path)
        spec = JobSpec(experiment="fig9", seed=1)
        cache.put(spec, {"scalars": {"zeta": 1.0, "alpha": 2.0}})
        assert list(cache.get(spec)["scalars"]) == ["zeta", "alpha"]

    def test_code_salt_is_stable(self):
        assert code_salt() == code_salt()
        assert len(code_salt()) == 16
        int(code_salt(), 16)  # hex

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(JobSpec(experiment="fig9", seed=1), {})
        cache.put(JobSpec(experiment="fig9", seed=2), {})
        assert cache.clear() == 2
        assert cache.get(JobSpec(experiment="fig9", seed=1)) is None


class TestRunGrid:
    SPECS = [JobSpec(experiment="fig9", seed=s, duration_s=10.0)
             for s in range(1, 7)]

    def test_serial_and_parallel_agree(self):
        serial = run_grid(self.SPECS, workers=1, run_fn=_double)
        parallel = run_grid(self.SPECS, workers=3, run_fn=_double)
        assert serial.results == parallel.results
        # ... and so does the formatted aggregate, byte for byte.
        fmt = lambda r: format_scalar_summaries(
            summarize_scalars(r.scalar_samples()))
        assert fmt(serial) == fmt(parallel)

    def test_outcomes_keep_input_order(self):
        report = run_grid(self.SPECS, workers=4, run_fn=_double)
        assert [o.result["seed"] for o in report.outcomes] == [1, 2, 3, 4, 5, 6]

    def test_cache_skips_recomputation(self, tmp_path):
        counter = _Flaky(fail_times=0)
        cache = ResultCache(root=tmp_path)
        first = run_grid(self.SPECS[:3], cache=cache, run_fn=counter)
        assert counter.calls == 3
        assert first.cache_stats.misses == 3 and first.cache_stats.hits == 0
        cache2 = ResultCache(root=tmp_path)
        second = run_grid(self.SPECS[:3], cache=cache2, run_fn=counter)
        assert counter.calls == 3  # no recomputation
        assert second.cache_stats.hits == 3 and second.cache_stats.misses == 0
        assert all(o.cached for o in second.outcomes)
        assert second.results == first.results

    def test_no_cache_mode_recomputes(self):
        counter = _Flaky(fail_times=0)
        run_grid(self.SPECS[:2], cache=None, run_fn=counter)
        run_grid(self.SPECS[:2], cache=None, run_fn=counter)
        assert counter.calls == 4

    def test_retry_recovers_from_transient_failure(self):
        flaky = _Flaky(fail_times=1)
        report = run_grid(self.SPECS[:1], retries=1, run_fn=flaky)
        assert report.outcomes[0].ok
        assert report.outcomes[0].attempts == 2

    def test_retries_are_bounded(self):
        flaky = _Flaky(fail_times=5)
        report = run_grid(self.SPECS[:1], retries=2, run_fn=flaky)
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert outcome.attempts == 3
        assert "transient" in outcome.error

    def test_parallel_failure_is_reported_not_raised(self):
        report = run_grid(self.SPECS[:2], workers=2, retries=0, run_fn=_boom)
        assert len(report.failures) == 2
        assert all("always fails" in o.error for o in report.failures)

    def test_failed_jobs_are_not_cached(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        run_grid(self.SPECS[:1], cache=cache, retries=0, run_fn=_boom)
        assert cache.stats.stores == 0

    def test_dead_worker_fails_its_job_without_killing_the_sweep(self):
        """A worker hard-death must not crash run_grid or rerun the
        poison job in the parent process (which would kill the sweep)."""
        report = run_grid(self.SPECS[:4], workers=2, retries=0,
                          run_fn=_suicide)
        assert len(report.outcomes) == 4
        by_seed = {o.spec.seed: o for o in report.outcomes}
        assert not by_seed[2].ok
        assert "worker process died" in by_seed[2].error
        # Innocent jobs either succeeded (serial fallback / completed in
        # time) or were collateral of the broken pool — never anything else.
        for seed in (1, 3, 4):
            outcome = by_seed[seed]
            assert outcome.ok or "worker process died" in outcome.error
        assert any(by_seed[s].ok for s in (1, 3, 4))

    def test_per_job_timeout(self):
        report = run_grid(self.SPECS[:2], workers=2, timeout_s=0.2,
                          retries=1, run_fn=_sleepy)
        assert len(report.failures) == 2
        assert all("timeout" in o.error for o in report.failures)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            run_grid(self.SPECS[:1], workers=0)
        with pytest.raises(ValueError, match="retries"):
            run_grid(self.SPECS[:1], retries=-1)


class TestExecuteSpec:
    def test_experiment_spec_matches_direct_metrics(self):
        from repro.experiments import REGISTRY, experiment_metrics

        spec = JobSpec(experiment="fig9", duration_s=10.0, seed=3)
        result = execute_spec(spec)
        assert result == experiment_metrics("fig9", duration_s=10.0, seed=3)
        # The registry's render turns the structured result into the report.
        text = REGISTRY["fig9"].render(result)
        assert "Figure 9" in text

    def test_real_experiment_serial_parallel_equality(self):
        specs = sweep_specs("fig9", "1..2", duration_s=5.0)
        serial = run_grid(specs, workers=1)
        parallel = run_grid(specs, workers=2)
        assert serial.results == parallel.results

    def test_scenario_spec_with_overrides(self):
        scenario = {
            "machine": {"preset": "smp", "n_cpus": 2},
            "max_power_per_cpu_w": 30.0,
            "workload": {"builder": "single_program", "program": "bitcnts",
                         "n": 2},
        }
        spec = JobSpec(scenario=scenario, duration_s=5.0, seed=2,
                       overrides={"max_power_per_cpu_w": 25.0})
        result = execute_spec(spec)
        assert result["seed"] == 2
        assert result["duration_s"] == 5.0
        assert result["summary"]["machine"]["n_cpus"] == 2
        assert set(result["scalars"]) >= {"fractional_jobs", "migrations"}


class TestGridFiles:
    def test_cartesian_expansion(self):
        entries = expand_grid({"jobs": [
            {"experiment": "fig9", "seeds": "1..3", "durations": [10, 20]},
        ]})
        assert len(entries) == 1
        specs = entries[0].specs
        assert len(specs) == 6
        assert {(s.duration_s, s.seed) for s in specs} == {
            (10.0, 1), (10.0, 2), (10.0, 3), (20.0, 1), (20.0, 2), (20.0, 3),
        }

    def test_load_grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([
            {"experiment": "fig9", "seeds": [1, 2], "duration_s": 10,
             "label": "tour"},
        ]))
        entries = load_grid(path)
        assert entries[0].label == "tour"
        assert [s.seed for s in entries[0].specs] == [1, 2]

    def test_rejects_unknown_keys_and_empty_grids(self):
        with pytest.raises(ValueError, match="unknown grid-entry keys"):
            expand_grid([{"experiment": "fig9", "seed": 1}])
        with pytest.raises(ValueError, match="non-empty"):
            expand_grid({"jobs": []})
        with pytest.raises(ValueError) as excinfo:
            expand_grid({"jobs": [{"experiment": "fig9", "seeds": [1]}],
                         "workers": 4})
        assert str(excinfo.value) == "unknown grid keys: ['workers']"
        with pytest.raises(ValueError, match="not both"):
            expand_grid([{"experiment": "fig9", "duration_s": 1,
                          "durations": [1]}])


class TestAggregation:
    def test_mean_std_ci(self):
        summaries = summarize_scalars([{"x": 1.0}, {"x": 2.0}, {"x": 3.0}])
        (s,) = summaries
        assert s.name == "x" and s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert s.ci95_half == pytest.approx(4.303 / 3 ** 0.5, rel=1e-3)
        assert s.lo < s.mean < s.hi

    def test_single_sample_has_zero_interval(self):
        (s,) = summarize_scalars([{"x": 5.0}])
        assert (s.mean, s.std, s.ci95_half) == (5.0, 0.0, 0.0)

    def test_only_shared_keys_aggregate_in_first_sample_order(self):
        summaries = summarize_scalars(
            [{"b": 1.0, "a": 1.0, "extra": 9.0}, {"b": 2.0, "a": 2.0}]
        )
        assert [s.name for s in summaries] == ["b", "a"]

    def test_t_table_asymptote(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(30) == pytest.approx(2.042)
        assert t_critical_95(1000) == pytest.approx(1.960)
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_format_is_deterministic(self):
        summaries = summarize_scalars([{"x": 1.0}, {"x": 2.0}])
        a = format_scalar_summaries(summaries, title="t")
        b = format_scalar_summaries(summaries, title="t")
        assert a == b and a.startswith("t\n")
