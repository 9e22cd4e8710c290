"""Checkpoint/resume: bit-identity, on-disk format, and version policy.

The load-bearing assertion is `test_checkpoint_resume_bit_identity`:
for every pinned scenario, on both tick paths, a run checkpointed
mid-duration and resumed yields a `scalar_summary()` and event trace
byte-identical to the uninterrupted run.
"""

import json
import pickle

import numpy as np
import pytest

from repro.api import run_simulation
from repro.resilience import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint,
    resume_simulation,
    run_simulation_checkpointed,
    save_checkpoint,
)
from repro.runner.cache import code_salt
from repro.scenario import parse_scenario
from repro.scenarios.pinned import REFERENCE_SCENARIOS, scenario_by_name
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.rng import RngFactory
from repro.system import CHECKPOINT_SCHEMA, CHECKPOINT_VERSION, System

DURATION_S = 6.0
SPLIT_S = 3.0


def _pinned(name):
    return parse_scenario(scenario_by_name(name).scenario)


def _build(scenario, fast_path):
    system = System(scenario.config, scenario.workload,
                    policy=scenario.policy, fast_path=fast_path)
    clock = Clock(scenario.config.tick_ms)
    engine = Engine(clock, system.tracer)
    engine.register(system)
    return system, clock, engine


def _events(result):
    return [e.to_dict() for e in result.system.tracer.events]


class TestBitIdentity:
    @pytest.mark.parametrize("fast_path", [True, False],
                             ids=["fast", "scalar"])
    @pytest.mark.parametrize("scenario", REFERENCE_SCENARIOS,
                             ids=lambda s: s.name)
    def test_checkpoint_resume_bit_identity(self, tmp_path, scenario,
                                            fast_path):
        scenario = parse_scenario(scenario.scenario)
        reference = run_simulation(
            scenario.config, scenario.workload, policy=scenario.policy,
            duration_s=DURATION_S, fast_path=fast_path,
        )
        system, clock, engine = _build(scenario, fast_path)
        engine.run_until_tick(clock.ticks_for_ms(SPLIT_S * 1000.0))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, system, duration_s=DURATION_S)
        resumed = resume_simulation(path)
        assert resumed.scalar_summary() == reference.scalar_summary()
        assert _events(resumed) == _events(reference)

    def test_observed_run_checkpoints_identically(self, tmp_path):
        scenario = _pinned("mixed-16cpu")
        reference = run_simulation(
            scenario.config, scenario.workload, policy=scenario.policy,
            duration_s=DURATION_S, obs=True,
        )
        written = []
        resumed = run_simulation_checkpointed(
            scenario.config, scenario.workload,
            checkpoint_path=tmp_path / "ck.bin",
            policy=scenario.policy, duration_s=DURATION_S,
            checkpoint_every_s=SPLIT_S, obs=True,
            on_checkpoint=lambda path, ticks: written.append(ticks),
        )
        assert len(written) == 2  # at 3s and 6s
        assert resumed.scalar_summary() == reference.scalar_summary()
        assert _events(resumed) == _events(reference)
        # Observer state survives too: same audit records, same counts.
        assert len(resumed.audit) == len(reference.audit)
        assert resumed.audit.sites_seen() == reference.audit.sites_seen()
        assert ([r.to_dict() for r in resumed.audit.query()]
                == [r.to_dict() for r in reference.audit.query()])

    def test_snapshot_restore_round_trip_preserves_aliasing(self):
        scenario = _pinned("mixed-16cpu")
        system, clock, engine = _build(scenario, fast_path=True)
        engine.run_ticks(50)
        restored = System.restore(system.snapshot())
        # The counter banks must write through the stacked matrix after
        # restore — a pickled numpy view otherwise detaches silently.
        for c, bank in enumerate(restored.banks):
            assert np.shares_memory(bank._counts, restored._counts_mx)
        # The restored machine and the original must stay in lockstep.
        engine.run_ticks(50)
        clock2 = Clock.at(scenario.config.tick_ms, 50)
        engine2 = Engine(clock2, restored.tracer)
        engine2.register(restored)
        engine2.run_ticks(50)
        assert (restored.tracer.counters.as_dict()
                == system.tracer.counters.as_dict())


class TestFormat:
    def _checkpointed(self, tmp_path):
        scenario = _pinned("mixed-8cpu-nosmt")
        system, clock, engine = _build(scenario, fast_path=True)
        engine.run_ticks(20)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, system, duration_s=DURATION_S)
        return path

    def test_header_is_one_json_line(self, tmp_path):
        path = self._checkpointed(tmp_path)
        raw = path.read_bytes()
        header = json.loads(raw[:raw.find(b"\n")])
        assert header["schema"] == (
            f"{CHECKPOINT_SCHEMA}/{CHECKPOINT_VERSION}"
        )
        assert header["code_salt"] == code_salt()
        assert header["ticks"] == 20
        assert header["duration_s"] == DURATION_S
        assert header["fast_path"] is True

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = self._checkpointed(tmp_path)
        save_checkpoint(path, System.restore(read_and_load(path)))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_read_rejects_missing_and_corrupt(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "nope.bin")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"no newline at all")
        with pytest.raises(CheckpointError, match="no header"):
            read_checkpoint(bad)
        bad.write_bytes(b"{not json\npayload")
        with pytest.raises(CheckpointError, match="corrupt header"):
            read_checkpoint(bad)
        bad.write_bytes(b'{"schema": "repro-checkpoint/999"}\npayload')
        with pytest.raises(CheckpointError, match="schema"):
            read_checkpoint(bad)

    def test_read_rejects_truncated_payload(self, tmp_path):
        path = self._checkpointed(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.find(b"\n") + 1])  # header, no payload
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_load_refuses_stale_salt_unless_allowed(self, tmp_path):
        path = self._checkpointed(tmp_path)
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["code_salt"] = "0" * 16
        path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n"
            + raw[newline + 1:]
        )
        with pytest.raises(CheckpointError, match="different code version"):
            load_checkpoint(path)
        system, snapshot = load_checkpoint(path, allow_stale=True)
        assert isinstance(system, System)
        assert snapshot["code_salt"] == "0" * 16

    def test_resume_needs_a_duration_from_somewhere(self, tmp_path):
        scenario = _pinned("mixed-8cpu-nosmt")
        system, clock, engine = _build(scenario, fast_path=True)
        engine.run_ticks(10)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, system)  # no duration recorded
        with pytest.raises(CheckpointError, match="planned duration"):
            resume_simulation(path)
        result = resume_simulation(path, duration_s=0.5)
        assert result.duration_s == 0.5

    def test_checkpoint_at_or_past_duration_resumes_to_no_op(self, tmp_path):
        scenario = _pinned("mixed-8cpu-nosmt")
        system, clock, engine = _build(scenario, fast_path=True)
        engine.run_until_tick(clock.ticks_for_ms(2000.0))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, system, duration_s=2.0)
        before = len(system.tracer.events)
        result = resume_simulation(path)
        assert len(result.system.tracer.events) == before


def read_and_load(path):
    """Helper: full snapshot dict (header + payload) from disk."""
    return read_checkpoint(path)


class TestStatePrimitives:
    def test_rng_snapshot_restore_replays_the_stream(self):
        rng = RngFactory(7)
        rng.stream("a").random()
        rng.stream("b")  # snapshots cover every stream created so far
        states = rng.snapshot_state()
        first = [rng.stream("a").random(), rng.stream("b").gauss(0, 1)]
        rng.restore_state(states)
        assert [rng.stream("a").random(),
                rng.stream("b").gauss(0, 1)] == first

    def test_clock_at_restores_tick_position(self):
        clock = Clock.at(10, ticks=25)
        assert clock.ticks == 25
        assert clock.now_ms == 250

    def test_run_until_tick_is_idempotent_at_target(self):
        clock = Clock(10)
        scenario = _pinned("mixed-8cpu-nosmt")
        system = System(scenario.config, scenario.workload,
                        policy=scenario.policy)
        engine = Engine(clock, system.tracer)
        engine.register(system)
        engine.run_until_tick(30)
        events = len(system.tracer.events)
        engine.run_until_tick(30)  # already there: no-op
        engine.run_until_tick(10)  # behind target: no-op, never rewinds
        assert clock.ticks == 30
        assert len(system.tracer.events) == events
        with pytest.raises(ValueError):
            engine.run_until_tick(-1)

    def test_snapshot_payload_is_a_plain_pickle(self):
        scenario = _pinned("mixed-8cpu-nosmt")
        system, clock, engine = _build(scenario, fast_path=False)
        engine.run_ticks(10)
        snapshot = system.snapshot()
        clone = pickle.loads(snapshot["payload"])
        assert isinstance(clone, System)
        assert snapshot["ticks"] == 10
        assert snapshot["fast_path"] is False
