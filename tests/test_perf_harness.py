"""Tests for the perf benchmark harness and fast/scalar path parity.

The contract under test is the tentpole's correctness bar: the batched
fast path must produce a ``scalar_summary()`` byte-identical to the
scalar reference for every supported configuration, and everything in
``BENCH_perf.json`` except the timings must be deterministic.
"""

import json

import pytest

from repro import (
    MachineSpec,
    SystemConfig,
    ThrottleConfig,
    mixed_table2_workload,
    run_simulation,
    single_program_workload,
)
from repro.perf import (
    HEADLINE_SCENARIO,
    REFERENCE_SCENARIOS,
    run_benchmarks,
    scenario_by_name,
    strip_timings,
)
from repro.scenario import parse_scenario
from repro.sim.trace import CounterSet

DURATION_S = 5.0


def _encode(summary):
    """Byte-level canonical form; floats equal only if bit-identical."""
    return json.dumps(summary, sort_keys=True)


def _run_both(config, workload, policy):
    fast = run_simulation(config, workload, policy=policy,
                          duration_s=DURATION_S, fast_path=True)
    scalar = run_simulation(config, workload, policy=policy,
                            duration_s=DURATION_S, fast_path=False)
    return fast, scalar


class TestFastScalarEquality:
    @pytest.mark.parametrize("policy", ["energy", "baseline"])
    @pytest.mark.parametrize("seed", [2, 7])
    @pytest.mark.parametrize("smt", [True, False])
    def test_summary_byte_identical(self, policy, seed, smt):
        config = SystemConfig(
            machine=MachineSpec.ibm_x445(smt=smt),
            max_power_per_cpu_w=60.0,
            seed=seed,
        )
        fast, scalar = _run_both(config, mixed_table2_workload(2), policy)
        assert _encode(fast.scalar_summary()) == _encode(
            scalar.scalar_summary()
        )

    @pytest.mark.parametrize("scope,mode", [
        ("logical", "hlt"),
        ("package", "hlt"),
        ("logical", "dvfs"),
    ])
    def test_summary_byte_identical_under_throttling(self, scope, mode):
        config = SystemConfig(
            machine=MachineSpec.ibm_x445(smt=True),
            max_power_per_cpu_w=20.0,
            seed=11,
            throttle=ThrottleConfig(enabled=True, scope=scope, mode=mode),
        )
        fast, scalar = _run_both(config, mixed_table2_workload(2), "energy")
        assert _encode(fast.scalar_summary()) == _encode(
            scalar.scalar_summary()
        )

    def test_full_counters_and_temps_match(self):
        """Deeper than the summary: counters and peak temps agree."""
        config = SystemConfig(
            machine=MachineSpec.smp(4), max_power_per_cpu_w=60.0, seed=3
        )
        fast, scalar = _run_both(config, mixed_table2_workload(1), "energy")
        assert (fast.system.tracer.counters.as_dict()
                == scalar.system.tracer.counters.as_dict())
        assert fast.max_temperature_c == scalar.max_temperature_c


class TestBenchPayloadDeterminism:
    @pytest.fixture(scope="class")
    def payloads(self):
        scenario = scenario_by_name(HEADLINE_SCENARIO)
        return [
            run_benchmarks([scenario], duration_s=2.0)
            for _ in range(2)
        ]

    def test_everything_but_timing_is_reproducible(self, payloads):
        first, second = (strip_timings(p) for p in payloads)
        assert first == second

    def test_summaries_identical_flag(self, payloads):
        assert payloads[0]["all_summaries_identical"] is True
        for scenario in payloads[0]["scenarios"]:
            assert scenario["summary_identical"] is True

    def test_payload_shape(self, payloads):
        payload = payloads[0]
        assert payload["schema"] == "repro-perf/3"
        assert payload["headline"]["name"] == HEADLINE_SCENARIO
        timing = payload["headline"]["timing"]
        assert set(timing) == {"fast_ticks_per_s", "scalar_ticks_per_s",
                               "speedup_vs_scalar"}
        (scenario,) = payload["scenarios"]
        assert scenario["ticks"] == 200  # 2 s at the 10 ms default tick
        assert set(scenario["scalar_summary"])  # non-empty summary

    def test_self_profile_shape(self, payloads):
        profile = payloads[0]["self_profile"]
        assert profile["name"] == HEADLINE_SCENARIO
        assert profile["duration_s"] == 2.0
        for path in ("fast", "scalar"):
            report = profile[path]
            assert report["ticks"] == 200
            assert report["timed_total_s"] > 0.0
            assert "execute" in report["phases"]
            for entry in report["phases"].values():
                assert set(entry) == {"total_s", "calls", "mean_us",
                                      "fraction"}

    def test_strip_timings_excludes_self_profile(self, payloads):
        # The phase breakdown is wall-clock data; it must never leak
        # into the deterministic subset.
        assert "self_profile" not in strip_timings(payloads[0])


class TestObsNeutrality:
    """Observability must never perturb the simulation (satellite d).

    A run with ``obs=False`` must be byte-identical in summary to a run
    that never mentions the kwarg, and enabling the full observer —
    audit, metrics, even profiling — must not change a single bit of
    the physics on either execution path.
    """

    NAMES = [s.name for s in REFERENCE_SCENARIOS]

    @staticmethod
    def _summary(name, **kwargs):
        scenario = parse_scenario(scenario_by_name(name).scenario)
        result = run_simulation(scenario.config, scenario.workload,
                                policy=scenario.policy, duration_s=2.0,
                                **kwargs)
        return _encode(result.scalar_summary())

    @pytest.mark.parametrize("name", NAMES)
    def test_obs_disabled_matches_no_kwarg(self, name):
        assert self._summary(name) == self._summary(name, obs=False)

    @pytest.mark.parametrize("name", NAMES)
    def test_obs_enabled_matches_plain(self, name):
        assert self._summary(name) == self._summary(name, obs=True)

    def test_fast_scalar_identity_holds_with_obs_enabled(self):
        from repro import ObservabilityConfig

        obs = ObservabilityConfig(profiling=True)
        fast = self._summary(HEADLINE_SCENARIO, fast_path=True, obs=obs)
        scalar = self._summary(HEADLINE_SCENARIO, fast_path=False, obs=obs)
        assert fast == scalar


class TestScenarioRegistry:
    def test_headline_is_registered(self):
        names = [s.name for s in REFERENCE_SCENARIOS]
        assert HEADLINE_SCENARIO in names
        assert len(names) == len(set(names))

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match=HEADLINE_SCENARIO):
            scenario_by_name("no-such-scenario")


class TestPerfCliVerdicts:
    """``repro perf`` exits 1 with one error line on a false verdict."""

    @pytest.mark.parametrize("scenarios_ok,fleet_ok,message", [
        (False, True, "fast path diverged"),
        (True, False, "fleet members diverged"),
    ], ids=["scenarios", "fleet"])
    def test_false_verdict_fails(self, scenarios_ok, fleet_ok, message,
                                 tmp_path, monkeypatch, capsys):
        import repro.perf
        from repro.cli import main

        payload = {"schema": "repro-perf/3",
                   "all_summaries_identical": scenarios_ok,
                   "fleet": {"members_identical": fleet_ok}}
        monkeypatch.setattr(repro.perf, "run_benchmarks",
                            lambda scenarios, duration_s: payload)
        code = main(["perf", "--json",
                     "--output", str(tmp_path / "bench.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {message} from the scalar reference" \
            in err.splitlines()
        assert json.loads((tmp_path / "bench.json").read_text()) == payload


class TestCounterDefaults:
    """Regression: never-incremented counters read as 0, never ``None``."""

    def test_counterset_get_defaults_to_zero(self):
        counters = CounterSet()
        assert counters.get("migrations") == 0
        assert counters.get("migrations", 5) == 5
        counters.add("migrations")
        assert counters.get("migrations") == 1

    def test_quiet_run_reports_zero_not_none(self):
        # One pinned task on one tick: nothing completes, nothing
        # migrates, so neither counter is ever incremented.
        config = SystemConfig(machine=MachineSpec.smp(2), seed=1)
        result = run_simulation(
            config, single_program_workload("aluadd", 1),
            policy="baseline", duration_s=0.01,
        )
        assert result.jobs_completed == 0
        assert result.migrations() == 0
        summary = result.scalar_summary()
        assert summary["migrations"] == 0.0
        assert summary["fractional_jobs"] is not None
