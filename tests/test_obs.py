"""The observability subsystem: audit log, metrics, exporters, traces.

The load-bearing property throughout is the design rule inherited from
the PR-3 validator: *observation must not perturb the simulation*.  The
neutrality assertions live in test_perf_harness.py (satellite d); this
file covers the subsystem's own behaviour.
"""

import json

import pytest

from repro import (
    MachineSpec,
    ObservabilityConfig,
    SystemConfig,
    mixed_table2_workload,
    run_simulation,
)
from repro.obs import (
    AUDIT_SCHEMA,
    AUDIT_SITES,
    CHROME_TRACE_SCHEMA,
    METRICS_SCHEMA,
    AuditLog,
    AuditRecord,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseTimers,
    chrome_trace,
    json_snapshot,
    migration_flow_events,
    prometheus_text,
)
from repro.sim.events import EventKind, EventRecord
from repro.sim.trace import Tracer


@pytest.fixture(scope="module")
def migrating_run():
    """One observed run of a scenario known to migrate (seed-pinned)."""
    config = SystemConfig(
        machine=MachineSpec.smp(4), max_power_per_cpu_w=45.0, seed=9
    )
    result = run_simulation(
        config, mixed_table2_workload(2), policy="energy",
        duration_s=30.0, obs=True,
    )
    assert result.migration_events()  # precondition for the tests below
    return result


class TestAuditRecord:
    def test_to_dict_shape(self):
        record = AuditRecord(seq=3, time_ms=1500, site="placement",
                             cpu=2, pid=7, chosen=2, accepted=True,
                             detail={"b": 1, "a": 2})
        assert record.to_dict() == {
            "schema": AUDIT_SCHEMA,
            "seq": 3,
            "time_ms": 1500,
            "site": "placement",
            "cpu": 2,
            "pid": 7,
            "chosen": 2,
            "accepted": True,
            "detail": {"a": 2, "b": 1},
        }
        assert record.time_s == 1.5

    def test_detail_sorted_recursively(self):
        record = AuditRecord(
            seq=0, time_ms=0, site="hot_migration",
            detail={"walk": [{"z": 1, "a": 2}], "nested": {"y": 0, "x": 1}},
        )
        detail = record.to_dict()["detail"]
        assert list(detail) == ["nested", "walk"]
        assert list(detail["nested"]) == ["x", "y"]
        assert list(detail["walk"][0]) == ["a", "z"]


class TestAuditLog:
    def _log(self, limit=None):
        clock = {"now": 0}
        log = AuditLog(lambda: clock["now"], limit=limit)
        return clock, log

    def test_record_stamps_time_and_seq(self):
        clock, log = self._log()
        log.record("placement", cpu=1, pid=5, chosen=1, accepted=True)
        clock["now"] = 250
        log.record("energy_balance", cpu=0)
        assert [r.seq for r in log.records] == [0, 1]
        assert [r.time_ms for r in log.records] == [0, 250]

    def test_unknown_site_rejected(self):
        _, log = self._log()
        with pytest.raises(ValueError, match="audit site"):
            log.record("no_such_site")

    def test_limit_drops_and_counts(self):
        _, log = self._log(limit=2)
        for _ in range(5):
            log.record("placement")
        assert len(log) == 2
        assert log.dropped == 3

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="limit"):
            AuditLog(lambda: 0, limit=0)

    def test_query_filters_compose(self):
        clock, log = self._log()
        log.record("migration", cpu=0, pid=7, chosen=3, accepted=True)
        clock["now"] = 1000
        log.record("migration", cpu=1, pid=8, chosen=2, accepted=True)
        log.record("placement", cpu=2, pid=7, chosen=2, accepted=True)
        log.record("energy_balance", cpu=0, accepted=False)
        assert len(log.query(site="migration")) == 2
        assert len(log.query(pid=7)) == 2
        assert len(log.query(accepted=True)) == 3
        assert len(log.query(since_ms=1000)) == 3
        assert len(log.query(until_ms=0)) == 1
        assert len(log.query(site="migration", pid=7)) == 1

    def test_query_cpu_matches_source_or_chosen(self):
        _, log = self._log()
        log.record("migration", cpu=0, pid=7, chosen=3, accepted=True)
        assert len(log.query(cpu=0)) == 1  # source side
        assert len(log.query(cpu=3)) == 1  # destination side
        assert log.query(cpu=5) == []

    def test_migrations_of_and_explain(self):
        _, log = self._log()
        log.record("placement", cpu=1, pid=7, chosen=1, accepted=True)
        log.record("migration", cpu=1, pid=7, chosen=0, accepted=True)
        log.record("migration", cpu=0, pid=9, chosen=1, accepted=True)
        assert [r.site for r in log.explain(7)] == ["placement", "migration"]
        assert len(log.migrations_of(7)) == 1

    def test_sites_seen_key_sorted(self):
        _, log = self._log()
        for site in ("placement", "energy_balance", "placement"):
            log.record(site)
        assert log.sites_seen() == {"energy_balance": 1, "placement": 2}
        assert list(log.sites_seen()) == ["energy_balance", "placement"]

    def test_to_dicts(self):
        _, log = self._log()
        log.record("placement", cpu=1)
        (d,) = log.to_dicts()
        assert d["site"] == "placement" and d["schema"] == AUDIT_SCHEMA


class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        c = Counter("repro_test_total")
        c.inc()
        c.inc(2.0, {"reason": "x"})
        c.inc(1.0, {"reason": "x"})
        assert c.value() == 1.0
        assert c.value({"reason": "x"}) == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter("repro_test_total").inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = Gauge("repro_temp")
        g.set(5.0)
        g.set(2.0)
        assert g.value() == 2.0

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="metric name"):
            Counter("0bad")
        with pytest.raises(ValueError, match="label name"):
            Gauge("ok").set(1.0, {"bad-label": "x"})

    def test_samples_sorted_by_label_set(self):
        g = Gauge("g")
        g.set(2.0, {"cpu": "10"})
        g.set(1.0, {"cpu": "0"})
        labels = [dict(ls) for ls, _ in g.samples()]
        assert labels == [{"cpu": "0"}, {"cpu": "10"}]

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        ((labels, counts, total, n),) = h.samples()
        assert labels == ()
        assert counts == [1, 2, 3]  # <=1, <=2, <=4; 100 only in +Inf
        assert n == 4 and total == pytest.approx(105.0)
        assert h.count() == 4

    def test_histogram_validates_bounds(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=())
        with pytest.raises(ValueError, match="distinct"):
            Histogram("h", buckets=(1.0, 1.0))

    def test_registry_get_or_create_and_type_conflict(self):
        reg = MetricsRegistry()
        c1 = reg.counter("repro_x_total")
        assert reg.counter("repro_x_total") is c1
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_x_total")
        assert "repro_x_total" in reg and len(reg) == 1

    def test_registry_get_unknown_names_registered(self):
        reg = MetricsRegistry()
        reg.gauge("known")
        with pytest.raises(KeyError, match="known"):
            reg.get("missing")

    def test_collect_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.gauge("z")
        reg.counter("a")
        assert [m.name for m in reg.collect()] == ["a", "z"]


class TestExporters:
    def _registry(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_moves_total", "Moves by reason.")
        c.inc(3.0, {"reason": "hot_task"})
        reg.gauge("repro_temp_celsius").set(61.5)
        h = reg.histogram("repro_pass_seconds", buckets=(0.001, 0.01))
        h.observe(0.0005)
        h.observe(0.5)
        return reg

    def test_prometheus_text_format(self):
        text = prometheus_text(self._registry())
        lines = text.splitlines()
        assert "# HELP repro_moves_total Moves by reason." in lines
        assert "# TYPE repro_moves_total counter" in lines
        assert 'repro_moves_total{reason="hot_task"} 3' in lines
        assert "repro_temp_celsius 61.5" in lines
        assert 'repro_pass_seconds_bucket{le="0.001"} 1' in lines
        assert 'repro_pass_seconds_bucket{le="0.01"} 1' in lines
        assert 'repro_pass_seconds_bucket{le="+Inf"} 2' in lines
        assert "repro_pass_seconds_sum 0.5005" in lines
        assert "repro_pass_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0, {"name": 'a"b\\c'})
        assert r'g{name="a\"b\\c"} 1' in prometheus_text(reg)

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_json_snapshot_shape(self):
        snapshot = json_snapshot(self._registry())
        assert snapshot["schema"] == METRICS_SCHEMA
        moves = snapshot["metrics"]["repro_moves_total"]
        assert moves["type"] == "counter"
        assert moves["samples"] == [
            {"labels": {"reason": "hot_task"}, "value": 3.0}
        ]
        hist = snapshot["metrics"]["repro_pass_seconds"]
        (sample,) = hist["samples"]
        assert sample["buckets"] == {"0.001": 1, "0.01": 1}
        assert sample["count"] == 2

    def test_exports_are_reproducible(self):
        reg = self._registry()
        assert prometheus_text(reg) == prometheus_text(reg)
        first = json.dumps(json_snapshot(reg), sort_keys=True)
        assert first == json.dumps(json_snapshot(reg), sort_keys=True)


class TestChromeTrace:
    def _tracer(self, events):
        tracer = Tracer()
        for e in events:
            tracer.event(e)
        return tracer

    def test_residency_opened_and_closed(self):
        tracer = self._tracer([
            EventRecord(100, EventKind.TASK_START, cpu=1, pid=7,
                        detail={"name": "gzip"}),
            EventRecord(400, EventKind.TASK_EXIT, cpu=1, pid=7),
        ])
        payload = chrome_trace(tracer, n_cpus=2, duration_s=1.0)
        slices = [e for e in payload["traceEvents"]
                  if e["ph"] == "X" and e["cat"] == "task"]
        (s,) = slices
        assert s["name"] == "gzip pid=7"
        assert s["ts"] == 100_000 and s["dur"] == 300_000  # microseconds
        assert s["tid"] == 1

    def test_open_residency_closed_at_end_of_run(self):
        tracer = self._tracer([
            EventRecord(0, EventKind.TASK_START, cpu=0, pid=1),
        ])
        payload = chrome_trace(tracer, n_cpus=1, duration_s=2.0)
        (s,) = [e for e in payload["traceEvents"] if e.get("cat") == "task"]
        assert s["dur"] == 2_000_000

    def test_migration_emits_flow_pair(self):
        tracer = self._tracer([
            EventRecord(0, EventKind.TASK_START, cpu=0, pid=5),
            EventRecord(500, EventKind.MIGRATION, cpu=2, pid=5,
                        detail={"src": 0, "dst": 2, "reason": "hot_task"}),
        ])
        payload = chrome_trace(tracer, n_cpus=4, duration_s=1.0)
        start = [e for e in payload["traceEvents"] if e["ph"] == "s"]
        finish = [e for e in payload["traceEvents"] if e["ph"] == "f"]
        (s,), (f,) = start, finish
        assert s["id"] == f["id"]
        assert s["tid"] == 0 and f["tid"] == 2
        assert f["ts"] == s["ts"] + 1  # finish strictly after start
        assert s["args"]["reason"] == "hot_task"
        assert migration_flow_events(payload) == [s]
        # The migration also splits the residency across lanes.
        tids = sorted(e["tid"] for e in payload["traceEvents"]
                      if e.get("cat") == "task")
        assert tids == [0, 2]

    def test_throttle_intervals_become_slices(self):
        tracer = self._tracer([
            EventRecord(100, EventKind.THROTTLE_ON, cpu=3),
            EventRecord(300, EventKind.THROTTLE_OFF, cpu=3),
            EventRecord(800, EventKind.THROTTLE_ON, cpu=3),  # never off
        ])
        payload = chrome_trace(tracer, n_cpus=4, duration_s=1.0)
        slices = [e for e in payload["traceEvents"]
                  if e.get("cat") == "throttle"]
        assert [(s["ts"], s["dur"]) for s in slices] == [
            (100_000, 200_000), (800_000, 200_000),
        ]

    def test_payload_metadata(self):
        payload = chrome_trace(Tracer(), n_cpus=2, duration_s=1.0,
                               scenario="unit")
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"] == {
            "schema": CHROME_TRACE_SCHEMA,
            "scenario": "unit",
            "duration_s": 1.0,
            "n_cpus": 2,
        }
        names = [e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert names == ["cpu 00", "cpu 01"]

    def test_simulation_export_is_valid_and_carries_flows(self, migrating_run):
        payload = migrating_run.chrome_trace(scenario="smp4")
        # Valid Chrome trace JSON: the object form round-trips and every
        # event has the required keys.
        clone = json.loads(json.dumps(payload))
        assert isinstance(clone["traceEvents"], list)
        for event in clone["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] in ("X", "s", "f"):
                assert isinstance(event["ts"], int)
        flows = migration_flow_events(clone)
        assert len(flows) == len(migrating_run.migration_events())


class TestPhaseTimers:
    def test_report_orders_and_fractions(self):
        timers = PhaseTimers()
        timers.add("thermal", 0.25)
        timers.add("execute", 0.75)
        timers.add("custom_extra", 0.0)
        timers.tick_done()
        report = timers.report()
        assert report["ticks"] == 1
        assert report["timed_total_s"] == pytest.approx(1.0)
        assert list(report["phases"]) == ["execute", "thermal",
                                          "custom_extra"]
        assert report["phases"]["execute"]["fraction"] == pytest.approx(0.75)
        assert report["phases"]["thermal"]["mean_us"] == pytest.approx(250_000)

    def test_empty_report(self):
        report = PhaseTimers().report()
        assert report == {"ticks": 0, "timed_total_s": 0.0, "phases": {}}

    def test_collection_time_moves_to_gc(self, monkeypatch):
        """A collection's time leaves the phase it ran in for ``gc``; the
        part of a pause longer than that phase carries to the next."""
        import repro.obs.profiling as profiling

        clock = iter([1.0, 1.25])
        monkeypatch.setattr(profiling, "perf_counter", lambda: next(clock))
        timers = PhaseTimers()
        timers.on_gc("start", {})
        timers.on_gc("stop", {})
        timers.add("wake_fork", 0.125)
        timers.add("dispatch", 0.5)
        timers.tick_done()
        report = timers.report()
        assert report["timed_total_s"] == pytest.approx(0.625)
        assert list(report["phases"]) == ["wake_fork", "dispatch", "gc"]
        phases = report["phases"]
        assert phases["wake_fork"]["total_s"] == 0.0
        assert phases["dispatch"]["total_s"] == pytest.approx(0.375)
        assert phases["gc"]["total_s"] == pytest.approx(0.25)
        assert phases["gc"]["calls"] == 1


class TestObservabilityConfig:
    def test_coerce_semantics(self):
        assert ObservabilityConfig.coerce(None) is None
        assert ObservabilityConfig.coerce(False) is None
        default = ObservabilityConfig.coerce(True)
        assert default == ObservabilityConfig()
        custom = ObservabilityConfig(profiling=True)
        assert ObservabilityConfig.coerce(custom) is custom
        with pytest.raises(TypeError, match="obs"):
            ObservabilityConfig.coerce("yes")


class TestObserverIntegration:
    def test_disabled_run_has_no_observer(self):
        config = SystemConfig(machine=MachineSpec.smp(2), seed=1)
        result = run_simulation(config, mixed_table2_workload(1),
                                duration_s=0.1)
        assert result.observer is None
        with pytest.raises(ValueError, match="audit"):
            result.explain(1)
        with pytest.raises(ValueError, match="metrics"):
            result.metrics_snapshot()

    def test_audit_covers_decision_sites(self, migrating_run):
        sites = migrating_run.audit.sites_seen()
        assert set(sites) <= set(AUDIT_SITES)
        assert sites["migration"] == len(migrating_run.migration_events())
        assert sites["placement"] > 0
        assert sites["energy_balance"] > 0

    def test_explain_covers_every_migration(self, migrating_run):
        """Acceptance: for every migrated task, ``explain(pid)`` returns
        the audit record of each of its committed migrations."""
        audit = migrating_run.audit
        by_pid: dict[int, list] = {}
        for event in migrating_run.migration_events():
            by_pid.setdefault(event.pid, []).append(event)
        assert by_pid
        for pid, events in by_pid.items():
            records = [r for r in migrating_run.explain(pid)
                       if r.site == "migration"]
            assert len(records) == len(events)
            for record, event in zip(records, events):
                assert record.time_ms == event.time_ms
                assert record.chosen == event.detail["dst"]
                assert record.detail["reason"] == event.detail["reason"]

    def test_migration_audit_matches_event_stream(self, migrating_run):
        records = migrating_run.audit.query(site="migration")
        events = migrating_run.migration_events()
        assert [(r.time_ms, r.pid, r.chosen) for r in records] == \
            [(e.time_ms, e.pid, e.detail["dst"]) for e in events]

    def test_metrics_mirror_tracer_counters(self, migrating_run):
        registry = migrating_run.observer.refresh()
        migrations = registry.get("repro_migrations_total")
        mirrored = sum(v for _, v in migrations.samples())
        assert mirrored == len(migrating_run.migration_events())

    def test_prometheus_and_snapshot_render(self, migrating_run):
        text = migrating_run.observer.prometheus()
        assert "# TYPE repro_migrations_total counter" in text
        assert "repro_cpu_thermal_power_watts" in text
        snapshot = migrating_run.metrics_snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        assert "repro_audit_records_total" in snapshot["metrics"]

    def test_audit_cap_bounds_memory(self):
        config = SystemConfig(
            machine=MachineSpec.smp(4), max_power_per_cpu_w=45.0, seed=9
        )
        result = run_simulation(
            config, mixed_table2_workload(2), policy="energy",
            duration_s=30.0,
            obs=ObservabilityConfig(max_audit_records=10),
        )
        assert len(result.audit) == 10
        assert result.audit.dropped > 0

    def test_profiling_run_reports_phases(self):
        config = SystemConfig(machine=MachineSpec.smp(2), seed=1)
        result = run_simulation(
            config, mixed_table2_workload(1), duration_s=1.0,
            obs=ObservabilityConfig(profiling=True),
        )
        report = result.observer.phase_report()
        assert report["ticks"] == 100
        assert report["phases"]["execute"]["calls"] == 100
        # Profiling plus metrics feeds the balance-pass histogram live.
        assert result.observer.balance_hist.count() > 0

    def test_gc_pauses_are_their_own_phase(self, monkeypatch):
        """A collection inside a phase is reported as ``gc``, the phases
        still sum to the timed total, the per-tick hook is gone after
        the run, and the physics is untouched."""
        import gc

        from repro.system import System

        def run(**kwargs):
            config = SystemConfig(machine=MachineSpec.smp(2), seed=1)
            return run_simulation(config, mixed_table2_workload(1),
                                  duration_s=0.5, **kwargs)

        plain = run()
        housekeeping = System._housekeeping

        def collecting(self, clock):
            gc.collect(0)
            housekeeping(self, clock)

        monkeypatch.setattr(System, "_housekeeping", collecting)
        hooks = list(gc.callbacks)
        profiled = run(obs=ObservabilityConfig(audit=False, metrics=False,
                                               profiling=True))
        assert gc.callbacks == hooks
        report = profiled.observer.phase_report()
        assert list(report["phases"])[-1] == "gc"
        assert report["phases"]["gc"]["total_s"] > 0
        assert report["phases"]["gc"]["calls"] >= report["ticks"]
        assert sum(row["total_s"] for row in report["phases"].values()) == (
            pytest.approx(report["timed_total_s"]))
        assert (json.dumps(profiled.scalar_summary(), sort_keys=True)
                == json.dumps(plain.scalar_summary(), sort_keys=True))

    def test_phase_report_none_without_profiling(self, migrating_run):
        assert migrating_run.observer.phase_report() is None
