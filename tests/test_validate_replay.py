"""``run_validation`` checks invariants and the oracle in one replay.

Each pinned scenario is built once per tick path, with the invariant
checker installed, and the two machines are replayed in lockstep: the
checkers fill the payload's ``clean`` entries and the replay its
``oracle`` entry.  That relies on the checker changing nothing it
observes, which the neutrality tests pin per scenario and path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import RunOptions
from repro.scenario import parse_scenario
from repro.scenarios.pinned import (
    FLEET_SCENARIO,
    REFERENCE_SCENARIOS,
    scenario_by_name,
)
from repro.system import System
from repro.validate import ValidationConfig
from repro.validate.oracle import summary_bytes
from repro.validate.runner import _event_digest, run_validation


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "scalar"])
@pytest.mark.parametrize(
    "scenario", REFERENCE_SCENARIOS, ids=lambda s: s.name
)
def test_checker_changes_no_result(scenario, fast_path):
    parsed = dataclasses.replace(
        parse_scenario(scenario.scenario), duration_s=2.0
    )
    plain = parsed.run(RunOptions(fast_path=fast_path))
    checked = parsed.run(RunOptions(
        fast_path=fast_path, validate=ValidationConfig(sample_every=1)
    ))
    assert checked.system.validator is not None
    assert summary_bytes(checked.scalar_summary()) == summary_bytes(
        plain.scalar_summary()
    )
    assert _event_digest(checked.system.tracer.events) == _event_digest(
        plain.system.tracer.events
    )


def test_one_build_per_tick_path(monkeypatch):
    """An SMT scenario without faults builds a fast and a scalar machine
    for the replay and two for the relabeling check: 4 builds (there
    were 8 when the clean runs and the oracle replayed separately and
    the relabeling check built a machine per run to read its siblings).
    The fleet oracle's builds, on the fleet scenario's workload, are
    counted apart."""
    fleet_workload = parse_scenario(FLEET_SCENARIO.scenario).workload.name
    builds = {"scenario": 0, "fleet": 0}
    init = System.__init__

    def counted(self, config, workload, *args, **kwargs):
        builds["fleet" if workload.name == fleet_workload else "scenario"] += 1
        init(self, config, workload, *args, **kwargs)

    monkeypatch.setattr(System, "__init__", counted)
    payload = run_validation(
        [scenario_by_name("mixed-16cpu")], duration_s=1.0,
        include_faults=False,
    )
    assert payload["ok"], payload["breaches"]
    (entry,) = payload["scenarios"]
    assert entry["metamorphic"]["applicable"]
    assert builds == {"scenario": 4, "fleet": 16}
