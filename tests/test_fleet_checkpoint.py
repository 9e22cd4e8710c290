"""Fleet checkpointing: snapshot/restore round-trips bit-exactly.

The property under test is the same one the scalar checkpoint tests
assert (tests/test_resilience_checkpoint.py): a run that is snapshotted
at tick T, restored in a fresh engine, and continued to tick N must be
byte-identical to the uninterrupted run to tick N — for every member.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import FLEET_CHECKPOINT_SCHEMA, FleetEngine
from repro.scenario import parse_scenario
from repro.scenarios.pinned import FLEET_SCENARIO
from repro.system import System

SEEDS = (1, 2, 3)
MID_TICKS = 120
TOTAL_TICKS = 260


def _build(seed: int) -> System:
    member = parse_scenario(dict(FLEET_SCENARIO.scenario, seed=seed))
    return System(member.config, member.workload, policy=member.policy)


def _engine() -> FleetEngine:
    return FleetEngine([_build(seed) for seed in SEEDS])


def _encode(engine: FleetEngine) -> list[str]:
    duration_s = engine.clock.ticks * engine.tick_ms / 1000.0
    return [
        json.dumps(result.scalar_summary(), sort_keys=True)
        for result in engine.results(duration_s)
    ]


class TestSnapshotRestore:
    def test_restored_run_is_byte_identical(self):
        straight = _engine()
        straight.run_ticks(TOTAL_TICKS)

        interrupted = _engine()
        interrupted.run_ticks(MID_TICKS)
        snapshot = interrupted.snapshot()
        # the snapshot must survive serialization, like the scalar
        # checkpoints the resilience layer writes to disk
        import pickle

        snapshot = pickle.loads(pickle.dumps(snapshot))
        restored = FleetEngine.restore(snapshot)
        assert restored.clock.ticks == MID_TICKS
        restored.run_ticks(TOTAL_TICKS - MID_TICKS)

        assert _encode(restored) == _encode(straight)

    def test_snapshot_does_not_perturb_the_run(self):
        """Snapshotting mid-run must not change the continuation."""
        straight = _engine()
        straight.run_ticks(TOTAL_TICKS)

        observed = _engine()
        observed.run_ticks(MID_TICKS)
        observed.snapshot()
        observed.run_ticks(TOTAL_TICKS - MID_TICKS)

        assert _encode(observed) == _encode(straight)

    def test_snapshot_header(self):
        engine = _engine()
        engine.run_ticks(10)
        snapshot = engine.snapshot()
        assert snapshot["schema"] == f"{FLEET_CHECKPOINT_SCHEMA}/1"
        assert snapshot["n_machines"] == len(SEEDS)
        assert snapshot["ticks"] == 10
        assert len(snapshot["members"]) == len(SEEDS)

    def test_unknown_schema_rejected(self):
        engine = _engine()
        snapshot = engine.snapshot()
        snapshot["schema"] = "repro-fleet-checkpoint/999"
        with pytest.raises(ValueError, match="checkpoint schema"):
            FleetEngine.restore(snapshot)
