"""Golden-trace regression tests.

One short canonical trace per pinned scenario lives under
``tests/golden/``.  Replaying a scenario must reproduce its committed
payload *byte-identically* — summary scalars, sorted counters, event
count, and the SHA-256 of the full event log.  Any drift means the
simulation changed behaviour; if the change is intended, regenerate
the traces and commit them:

    PYTHONPATH=src python -m repro validate --write-golden tests/golden
"""

import json
import pathlib

import pytest

from repro.scenarios.pinned import REFERENCE_SCENARIOS
from repro.validate.runner import GOLDEN_SCHEMA, golden_trace

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def encode(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestGoldenTraces:
    def test_every_pinned_scenario_has_a_golden(self):
        committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
        assert committed == {s.name for s in REFERENCE_SCENARIOS}

    @pytest.mark.parametrize(
        "scenario", REFERENCE_SCENARIOS, ids=lambda s: s.name
    )
    def test_replay_is_byte_identical(self, scenario):
        committed = (GOLDEN_DIR / f"{scenario.name}.json").read_text()
        regenerated = encode(golden_trace(scenario))
        assert regenerated == committed, (
            f"{scenario.name}: replay drifted from tests/golden/"
            f"{scenario.name}.json; if intended, regenerate with "
            f"`PYTHONPATH=src python -m repro validate "
            f"--write-golden tests/golden`"
        )

    def test_goldens_declare_the_schema(self):
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            payload = json.loads(path.read_text())
            assert payload["schema"] == GOLDEN_SCHEMA
            assert payload["scenario"] == path.stem
            assert payload["n_events"] >= 0
            assert len(payload["events_sha256"]) == 64

    def test_counters_are_key_sorted(self):
        """Golden stability depends on CounterSet.as_dict sorting."""
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            counters = json.loads(path.read_text())["counters"]
            assert list(counters) == sorted(counters)
