"""Unit tests for tracing: time series, events, counters."""

import numpy as np
import pytest

from repro.sim.events import EVENT_SCHEMA, EventKind, EventRecord
from repro.sim.trace import CounterSet, TimeSeries, Tracer


class TestTimeSeries:
    def test_append_and_length(self):
        s = TimeSeries("x")
        s.append(0.0, 1.0)
        s.append(1.0, 2.0)
        assert len(s) == 2

    def test_numpy_export(self):
        s = TimeSeries("x")
        s.append(0.0, 1.0)
        s.append(0.5, 3.0)
        np.testing.assert_allclose(s.times, [0.0, 0.5])
        np.testing.assert_allclose(s.values, [1.0, 3.0])

    def test_last_and_mean(self):
        s = TimeSeries("x")
        s.append(0.0, 2.0)
        s.append(1.0, 4.0)
        assert s.last() == 4.0
        assert s.mean() == pytest.approx(3.0)

    def test_last_on_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            TimeSeries("x").last()

    def test_mean_on_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries("x").mean()


class TestCounterSet:
    def test_defaults_to_zero(self):
        assert CounterSet().get("missing") == 0

    def test_add_accumulates(self):
        c = CounterSet()
        c.add("migrations")
        c.add("migrations", 2)
        assert c.get("migrations") == 3

    def test_as_dict_snapshot(self):
        c = CounterSet()
        c.add("a")
        snapshot = c.as_dict()
        c.add("a")
        assert snapshot == {"a": 1}


class TestTracerSeries:
    def test_sample_creates_series(self):
        tracer = Tracer(sample_interval_s=0.0)
        tracer.sample("power", 0.0, 10.0)
        assert tracer.get_series("power").last() == 10.0

    def test_decimation_drops_dense_samples(self):
        tracer = Tracer(sample_interval_s=1.0)
        for i in range(100):
            tracer.sample("x", i * 0.1, float(i))
        series = tracer.get_series("x")
        # 10 samples/s decimated to ~1/s.
        assert len(series) <= 11

    def test_zero_interval_records_everything(self):
        tracer = Tracer(sample_interval_s=0.0)
        for i in range(50):
            tracer.sample("x", i * 0.01, float(i))
        assert len(tracer.get_series("x")) == 50

    def test_unknown_series_raises_with_available_names(self):
        tracer = Tracer()
        tracer.sample("known", 0.0, 1.0)
        with pytest.raises(KeyError, match="known"):
            tracer.get_series("unknown")

    def test_series_matching_prefix_sorted(self):
        tracer = Tracer(sample_interval_s=0.0)
        for name in ("thermal.cpu02", "thermal.cpu00", "thermal.cpu01", "temp.pkg0"):
            tracer.sample(name, 0.0, 1.0)
        matched = tracer.series_matching("thermal.")
        assert [s.name for s in matched] == [
            "thermal.cpu00",
            "thermal.cpu01",
            "thermal.cpu02",
        ]


class TestEventRecordSerialization:
    """Satellite (a): versioned, key-stable event serialization."""

    def test_to_dict_round_trips(self):
        record = EventRecord(1500, EventKind.MIGRATION, cpu=3, pid=42,
                             detail={"src": 1, "reason": "hot_task"})
        clone = EventRecord.from_dict(record.to_dict())
        assert clone == record

    def test_to_dict_shape_and_schema(self):
        d = EventRecord(250, EventKind.TASK_START, cpu=0, pid=7).to_dict()
        assert d == {
            "schema": EVENT_SCHEMA,
            "time_ms": 250,
            "kind": "task_start",
            "cpu": 0,
            "pid": 7,
            "detail": {},
        }

    def test_detail_keys_are_sorted(self):
        record = EventRecord(
            0, EventKind.MIGRATION, cpu=1, pid=2,
            detail={"z": 1, "a": 2, "m": 3},
        )
        assert list(record.to_dict()["detail"]) == ["a", "m", "z"]

    def test_from_dict_rejects_unknown_schema(self):
        d = EventRecord(0, EventKind.TASK_EXIT, cpu=0, pid=1).to_dict()
        d["schema"] = EVENT_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            EventRecord.from_dict(d)

    def test_from_dict_defaults(self):
        # Older producers may omit schema/cpu/pid; those default rather
        # than KeyError.
        record = EventRecord.from_dict(
            {"time_ms": 10, "kind": "throttle_on"}
        )
        assert record.kind is EventKind.THROTTLE_ON
        assert record.cpu == -1 and record.pid == -1
        assert record.detail == {}


class TestTracerDecimationBoundaries:
    """Satellite (b): interval edge cases must not lose samples."""

    def test_zero_interval_no_zero_division(self):
        tracer = Tracer(sample_interval_s=0.0)
        tracer.sample("x", 0.0, 1.0)  # would divide by zero pre-fix
        tracer.sample("x", 0.0, 2.0)
        assert len(tracer.get_series("x")) == 2

    def test_first_sample_near_t0_is_kept(self):
        # The first tick lands at one tick past zero; the old
        # "last-sample at 0" initialisation silently swallowed it.
        tracer = Tracer(sample_interval_s=1.0)
        tracer.sample("x", 0.01, 5.0)
        assert tracer.get_series("x").last() == 5.0

    def test_one_sample_per_bucket(self):
        tracer = Tracer(sample_interval_s=1.0)
        for t in (0.01, 0.5, 0.99, 1.0, 1.7, 2.0):
            tracer.sample("x", t, t)
        # Buckets [0,1), [1,2), [2,3) keep their first sample each.
        np.testing.assert_allclose(
            tracer.get_series("x").times, [0.01, 1.0, 2.0]
        )

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="sample_interval_s"):
            Tracer(sample_interval_s=-1.0)

    def test_nan_interval_rejected(self):
        with pytest.raises(ValueError, match="sample_interval_s"):
            Tracer(sample_interval_s=float("nan"))

    def test_buckets_are_independent_per_series(self):
        tracer = Tracer(sample_interval_s=1.0)
        tracer.sample("a", 0.2, 1.0)
        tracer.sample("b", 0.4, 2.0)  # same bucket, different series
        assert len(tracer.get_series("a")) == 1
        assert len(tracer.get_series("b")) == 1


class TestTracerEvents:
    def test_event_recording_and_filtering(self):
        tracer = Tracer()
        tracer.event(EventRecord(0, EventKind.MIGRATION, cpu=1, pid=2))
        tracer.event(EventRecord(5, EventKind.TASK_EXIT, cpu=1, pid=2))
        tracer.event(EventRecord(9, EventKind.MIGRATION, cpu=0, pid=3))
        assert len(tracer.events_of(EventKind.MIGRATION)) == 2
        assert len(tracer.events_of(EventKind.TASK_EXIT)) == 1

    def test_count_events_with_predicate(self):
        tracer = Tracer()
        for cpu in (0, 1, 1, 2):
            tracer.event(EventRecord(0, EventKind.THROTTLE_ON, cpu=cpu))
        assert tracer.count_events(EventKind.THROTTLE_ON) == 4
        assert tracer.count_events(EventKind.THROTTLE_ON, lambda e: e.cpu == 1) == 2

    def test_event_detail_round_trip(self):
        tracer = Tracer()
        tracer.event(
            EventRecord(1, EventKind.MIGRATION, cpu=4, pid=9,
                        detail={"src": 2, "reason": "hot_task"})
        )
        event = tracer.events_of(EventKind.MIGRATION)[0]
        assert event.detail["src"] == 2
        assert event.detail["reason"] == "hot_task"
