"""Run event bus: schema, sinks, durability, and emission wiring.

The bus is the sweep-scale telemetry backbone (repro.obs.events): these
tests pin the event schema, the sink fan-out semantics (a raising sink
must never kill the sweep), the JSONL sink's crash-tolerant replay, and
the event streams the runner entry points actually emit — including the
index remapping the fleet grid applies to its inner pool fallback.
"""

import json

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    RUN_EVENT_SCHEMA,
    EventBus,
    JsonlSink,
    RingBufferSink,
    RunEvent,
    count_by_kind,
    read_events,
)


class TestEventBus:
    def test_emit_returns_sequenced_event(self):
        bus = EventBus()
        first = bus.emit("job_started", index=0)
        second = bus.emit("job_finished", index=0, attempts=1, elapsed_s=0.5)
        assert (first.seq, second.seq) == (1, 2)
        assert first.kind == "job_started"
        assert second.data["attempts"] == 1

    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.emit("job_exploded")

    def test_fan_out_to_all_sinks(self):
        bus = EventBus()
        seen_a, seen_b = [], []
        bus.subscribe(seen_a.append)
        bus.subscribe(seen_b.append)
        bus.emit("grid_started", total=3, workers=1)
        assert len(seen_a) == 1 and len(seen_b) == 1
        assert seen_a[0] is seen_b[0]

    def test_raising_sink_counted_not_propagated(self):
        bus = EventBus()
        healthy = []

        def bad(event):
            raise RuntimeError("sink down")

        bus.subscribe(bad)
        bus.subscribe(healthy.append)
        event = bus.emit("job_started", index=1)
        assert event.kind == "job_started"
        assert healthy == [event]
        assert bus.sink_errors == 1

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        # a different bound method object: remove by identity of what
        # was registered, so re-register and remove that reference.
        sink = seen.append
        bus.subscribe(sink)
        bus.unsubscribe(sink)
        bus.emit("job_started", index=0)
        assert seen == []

    def test_event_to_dict_carries_schema(self):
        event = RunEvent(kind="job_failed", seq=7, t=123.0,
                         data={"index": 2, "error": "boom"})
        record = event.to_dict()
        assert record["schema"] == RUN_EVENT_SCHEMA
        assert record["kind"] == "job_failed"
        assert json.loads(event.to_json()) == record

    def test_to_json_sorted_and_compact(self):
        event = RunEvent(kind="job_started", seq=1, t=1.0,
                         data={"b": 2, "a": 1})
        text = event.to_json()
        assert text.index('"a"') < text.index('"b"')
        assert ": " not in text


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with JsonlSink(path) as sink:
            bus.subscribe(sink)
            bus.emit("grid_started", total=2, workers=1)
            bus.emit("job_started", index=0)
            bus.emit("job_finished", index=0, attempts=1, elapsed_s=0.1)
        events = read_events(path)
        assert [e.kind for e in events] == [
            "grid_started", "job_started", "job_finished",
        ]
        assert events[0].data == {"total": 2, "workers": 1}

    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink(RunEvent(kind="job_started", seq=1, t=1.0,
                          data={"index": 0}))
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "job_finished", "seq": 2')  # SIGKILL here
        events = read_events(path)
        assert [e.kind for e in events] == ["job_started"]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_events(tmp_path / "never-written.jsonl") == []

    def test_write_after_close_is_noop(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.close()
        sink(RunEvent(kind="job_started", seq=1, t=1.0, data={}))
        assert read_events(path) == []


class TestRingBufferSink:
    def test_keeps_newest_and_counts_dropped(self):
        ring = RingBufferSink(capacity=3)
        for seq in range(5):
            ring(RunEvent(kind="job_started", seq=seq, t=float(seq),
                          data={}))
        assert [e.seq for e in ring.events()] == [2, 3, 4]
        assert ring.dropped == 2
        assert len(ring) == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestCountByKind:
    def test_sorted_counts(self):
        events = [
            RunEvent(kind="job_finished", seq=1, t=1.0, data={}),
            RunEvent(kind="job_started", seq=2, t=1.0, data={}),
            RunEvent(kind="job_finished", seq=3, t=1.0, data={}),
        ]
        assert count_by_kind(events) == {
            "job_finished": 2, "job_started": 1,
        }
        assert list(count_by_kind(events)) == ["job_finished", "job_started"]


def _scenario_specs(n, fleet_ready=True):
    from repro.runner.spec import JobSpec

    data = {
        "name": "events-probe",
        "machine": {"preset": "cmp", "packages": 1, "cores": 2,
                    "smt": False},
        "workload": {"builder": "steady_mix", "copies": 1},
        "policy": "energy",
        "duration_s": 0.2,
    }
    if fleet_ready:
        data["counter_jitter_sigma"] = 0.0
        data["power"] = {"noise_sigma": 0.0}
    return [JobSpec(scenario=data, seed=seed) for seed in range(1, n + 1)]


class TestRunGridEmission:
    def test_pool_sweep_event_stream(self):
        from repro.runner.executor import run_grid

        bus = EventBus()
        ring = RingBufferSink(256)
        bus.subscribe(ring)
        report = run_grid(_scenario_specs(2), bus=bus)
        assert all(o.ok for o in report.outcomes)
        counts = count_by_kind(ring.events())
        assert counts["grid_started"] == 1
        assert counts["grid_finished"] == 1
        assert counts["job_started"] == 2
        assert counts["job_finished"] == 2
        finished = [e for e in ring.events() if e.kind == "grid_finished"]
        assert finished[0].data["total"] == 2
        assert finished[0].data["failed"] == 0

    def test_cache_hits_emit_cache_events(self, tmp_path):
        from repro.runner.cache import ResultCache
        from repro.runner.executor import run_grid

        specs = _scenario_specs(2)
        cache = ResultCache(root=tmp_path / "cache")
        run_grid(specs, cache=cache)
        bus = EventBus()
        ring = RingBufferSink(256)
        bus.subscribe(ring)
        run_grid(specs, cache=cache, bus=bus)
        counts = count_by_kind(ring.events())
        assert counts["job_cache_hit"] == 2
        assert "job_started" not in counts

    def test_failure_emits_job_failed(self):
        from repro.runner.executor import run_grid
        from repro.runner.spec import JobSpec

        bad = JobSpec(scenario={"name": "broken", "machine": {"bogus": 1}},
                      seed=1)
        bus = EventBus()
        ring = RingBufferSink(256)
        bus.subscribe(ring)
        report = run_grid([bad], retries=0, bus=bus)
        assert not report.outcomes[0].ok
        counts = count_by_kind(ring.events())
        assert counts["job_failed"] == 1

    def test_fleet_sweep_event_stream(self):
        from repro.runner.fleet_grid import run_grid_fleet

        bus = EventBus()
        ring = RingBufferSink(1024)
        bus.subscribe(ring)
        report = run_grid_fleet(_scenario_specs(3), bus=bus)
        assert all(o.ok for o in report.outcomes)
        counts = count_by_kind(ring.events())
        assert counts["fleet_chunk_started"] == 1
        assert counts["fleet_chunk_finished"] == 1
        assert counts["fleet_tick_progress"] >= 1
        assert counts["job_finished"] == 3
        assert counts["grid_started"] == 1
        assert counts["grid_finished"] == 1
        assert report.fleet_stats is not None
        assert report.fleet_stats.members == 3

    def test_fleet_fallback_indices_remapped_to_outer_grid(self):
        """Pool-fallback jobs inside a fleet sweep report the caller's
        indices, and the sweep emits one started/finished pair."""
        from repro.runner.fleet_grid import run_grid_fleet

        specs = _scenario_specs(2) + _scenario_specs(1, fleet_ready=False)
        bus = EventBus()
        ring = RingBufferSink(1024)
        bus.subscribe(ring)
        report = run_grid_fleet(specs, bus=bus)
        assert all(o.ok for o in report.outcomes)
        counts = count_by_kind(ring.events())
        assert counts["grid_started"] == 1
        assert counts["grid_finished"] == 1
        finished_indices = sorted(
            e.data["index"] for e in ring.events()
            if e.kind == "job_finished"
        )
        assert finished_indices == [0, 1, 2]
