"""The adversarial instances must actually be adversarial.

The issue's acceptance bar: at least one generated instance stresses
the balancer/throttle machinery harder than every static Table-2 mix.
Both pinned instances clear it on *both* axes — migrations per
simulated second AND time-average throttle fraction — against all six
hand-written reference scenarios at the full 60 s tournament duration.

These are the most expensive tests in the scenario suite (eight 60 s
simulations), so the metrics are computed once per session and shared.
"""

from __future__ import annotations

import pytest

from repro.analysis.export import run_summary
from repro.api import run_simulation
from repro.scenario import parse_scenario
from repro.scenarios import adversarial_search
from repro.scenarios.pinned import REFERENCE_SCENARIOS, scenario_by_name

PINNED_ADVERSARIAL = ("adv-pingpong", "adv-throttle-storm")
STATIC = tuple(
    s for s in REFERENCE_SCENARIOS if s.name not in PINNED_ADVERSARIAL
)
DURATION_S = 60.0


def stress_metrics(name: str) -> tuple[float, float]:
    """(migrations/s, throttle fraction) for one reference scenario,
    measured exactly as the tournament does."""
    scenario = parse_scenario(scenario_by_name(name).scenario)
    result = run_simulation(
        scenario.config, scenario.workload, policy=scenario.policy,
        duration_s=DURATION_S,
    )
    summary = run_summary(result)
    return (
        summary["migrations"]["total"] / DURATION_S,
        summary["throttling"]["average_fraction"],
    )


@pytest.fixture(scope="module")
def metrics():
    return {s.name: stress_metrics(s.name) for s in REFERENCE_SCENARIOS}


class TestPinnedInstancesBeatStaticMixes:
    def test_static_set_is_the_full_hand_written_six(self):
        assert len(STATIC) == 6
        assert len(REFERENCE_SCENARIOS) == 8

    @pytest.mark.parametrize("name", PINNED_ADVERSARIAL)
    def test_beats_every_static_mix_on_both_axes(self, metrics, name):
        adv_mig, adv_thr = metrics[name]
        for static in STATIC:
            mig, thr = metrics[static.name]
            assert adv_mig > mig, (
                f"{name} migrations/s {adv_mig:.2f} <= "
                f"{static.name} {mig:.2f}"
            )
            assert adv_thr > thr, (
                f"{name} throttle {adv_thr:.3f} <= {static.name} {thr:.3f}"
            )


class TestSearchDeterminism:
    def test_search_is_a_pure_function_of_its_arguments(self):
        a = adversarial_search(n_candidates=3, seed=7, duration_s=2.0)
        b = adversarial_search(n_candidates=3, seed=7, duration_s=2.0)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_search_ranks_worst_first(self):
        results = adversarial_search(n_candidates=4, seed=3, duration_s=2.0)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_different_search_seed_different_candidates(self):
        a = adversarial_search(n_candidates=3, seed=1, duration_s=2.0)
        b = adversarial_search(n_candidates=3, seed=2, duration_s=2.0)
        assert ({r.spec.digest() for r in a}
                != {r.spec.digest() for r in b})
