"""Property tests (hypothesis) over the scenario generator families.

Three guarantees hold for *every* (family, params, seed) the strategies
can draw, not just the pinned instances:

* generation is schema-valid — ``parse_scenario`` accepts the output;
* generation is a pure function of the spec — same draw, byte-identical
  JSON and equal digests;
* the generated scenarios simulate cleanly — a short run with every
  registered invariant checked on every tick reports zero violations.

Machines are overridden to small SMPs and horizons kept short so each
example costs milliseconds, which is what lets the invariant runs check
every tick instead of sampling.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import run_simulation
from repro.scenario import parse_scenario
from repro.scenarios import GeneratorSpec
from repro.validate.invariants import ValidationConfig

SMALL_MACHINE = st.sampled_from(["smp2", "smp4", "cmp2x2"])
SEEDS = st.integers(0, 2**31 - 1)

poisson_params = st.fixed_dictionaries({
    "machine": SMALL_MACHINE,
    "rate_per_s": st.floats(0.2, 4.0),
    "mean_job_s": st.floats(0.6, 3.0),
    "horizon_s": st.floats(2.0, 6.0),
    # backlog >= 1 keeps even (low rate x short horizon) draws from
    # generating zero tasks, which the family rejects by design.
    "backlog": st.integers(1, 3),
})
bursty_params = st.fixed_dictionaries({
    "machine": SMALL_MACHINE,
    "base_rate_per_s": st.floats(0.5, 4.0),
    "depth": st.floats(0.0, 1.0),
    "period_s": st.floats(2.0, 10.0),
    "phase": st.floats(0.0, 1.0),
    "horizon_s": st.floats(2.0, 6.0),
})
sporadic_params = st.fixed_dictionaries({
    "machine": SMALL_MACHINE,
    "n_tasks": st.integers(1, 6),
    "utilization": st.floats(0.5, 2.0),
    "period_min_s": st.floats(1.0, 2.0),
    "period_max_s": st.floats(2.0, 6.0),
    "horizon_s": st.floats(2.0, 8.0),
})
adversarial_params = st.fixed_dictionaries({
    "machine": SMALL_MACHINE,
    "budget_w": st.floats(14.0, 25.0),
    "phase_scale": st.floats(0.05, 0.5),
    "duty": st.floats(0.3, 0.9),
    "hot_jobs": st.integers(1, 4),
    "cool_fill": st.integers(1, 4),
    "rotate_groups": st.sampled_from([1, 2]),
    "jitter": st.floats(0.0, 0.3),
    "horizon_s": st.floats(2.0, 6.0),
})

specs = st.one_of(
    st.builds(lambda p, s: GeneratorSpec("poisson", p, seed=s),
              poisson_params, SEEDS),
    st.builds(lambda p, s: GeneratorSpec("bursty", p, seed=s),
              bursty_params, SEEDS),
    st.builds(lambda p, s: GeneratorSpec("sporadic", p, seed=s),
              sporadic_params, SEEDS),
    st.builds(lambda p, s: GeneratorSpec("thermal-adversarial", p, seed=s),
              adversarial_params, SEEDS),
)


@settings(max_examples=12, deadline=None)
@given(spec=specs)
# A sporadic period longer than the horizon must still release a job.
@example(spec=GeneratorSpec("sporadic", {
    "machine": "smp2", "n_tasks": 1, "utilization": 2.0,
    "period_min_s": 1.609375, "period_max_s": 3.0, "horizon_s": 2.25,
}, seed=0))
def test_generated_scenarios_are_schema_valid(spec):
    data = spec.instantiate()
    scenario = parse_scenario(data)
    assert len(scenario.workload) >= 1
    assert scenario.duration_s > 0
    # The JSON round-trip inside instantiate() really was a fixpoint.
    assert json.loads(json.dumps(data)) == data


@settings(max_examples=12, deadline=None)
@given(spec=specs)
def test_generation_is_seed_deterministic(spec):
    first = spec.instantiate()
    clone = GeneratorSpec.from_dict(spec.to_dict())
    assert clone.digest() == spec.digest()
    assert (json.dumps(clone.instantiate(), sort_keys=True)
            == json.dumps(first, sort_keys=True))


@settings(max_examples=8, deadline=None)
@given(spec=specs)
def test_generated_scenarios_run_clean_under_invariants(spec):
    scenario = spec.build()
    result = run_simulation(
        scenario.config,
        scenario.workload,
        policy=scenario.policy,
        duration_s=1.0,
        validate=ValidationConfig(sample_every=1),
    )
    assert result.system.validator.violations == []
