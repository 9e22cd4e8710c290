"""Fast/scalar path parity and the pinned scenario table.

The batched fast path must produce a ``scalar_summary()``
byte-identical to the scalar reference for every supported
configuration, and observability must not change a bit of it.
``repro validate`` checks the same contract per tick on the pinned
scenarios; these cases cover the configurations between them.
"""

import pytest

from repro import (
    MachineSpec,
    SystemConfig,
    ThrottleConfig,
    mixed_table2_workload,
    run_simulation,
    single_program_workload,
)
from repro.cli import build_parser
from repro.scenario import parse_scenario
from repro.scenarios.pinned import REFERENCE_SCENARIOS, scenario_by_name
from repro.sim.trace import CounterSet
from repro.validate.oracle import summary_bytes

DURATION_S = 5.0
HEADLINE_SCENARIO = "mixed-16cpu"


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
        assert summary_bytes(fast.scalar_summary()) == summary_bytes(
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
        assert summary_bytes(fast.scalar_summary()) == summary_bytes(
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
        return summary_bytes(result.scalar_summary())

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
        assert len(names) == len(set(names))
        for command in ("trace", "explain"):
            default = build_parser().parse_args([command]).scenario
            assert default in names

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match=HEADLINE_SCENARIO):
            scenario_by_name("no-such-scenario")


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
