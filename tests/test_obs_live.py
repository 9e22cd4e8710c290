"""Live telemetry: aggregator folding, HTTP endpoint, and ``repro top``.

The aggregator is a pure fold over the run event stream, so these tests
drive it with synthetic events and assert the derived numbers (done
counts, rolling throughput, ETA, fleet machine-ticks).  The server
tests bind an ephemeral 127.0.0.1 port and scrape it like Prometheus
would.
"""

import json
import urllib.error
import urllib.request

from repro.obs.events import EventBus, RingBufferSink, RunEvent
from repro.obs.exporters import prometheus_text
from repro.obs.live import (
    LiveAggregator,
    MetricsServer,
    render_top,
    serve_bus,
)


def _event(kind, t=0.0, seq=1, **data):
    return RunEvent(kind=kind, seq=seq, t=t, data=data)


class TestLiveAggregator:
    def test_job_lifecycle_counts(self):
        agg = LiveAggregator()
        agg(_event("grid_started", total=4, workers=2))
        agg(_event("job_started", index=0))
        agg(_event("job_started", index=1))
        agg(_event("job_finished", index=0, attempts=1, elapsed_s=0.5))
        agg(_event("job_failed", index=1, attempts=2, error="boom"))
        agg(_event("job_cache_hit", index=2, source="cache"))
        snap = agg.snapshot()
        assert snap["jobs_total"] == 4
        assert snap["jobs_done"] == 3
        assert snap["jobs_finished"] == 2  # one run, one cache hit
        assert snap["jobs_failed"] == 1
        assert snap["cache_hits"] == 1
        assert snap["jobs_running"] == 0

    def test_cache_hit_does_not_underflow_running(self):
        agg = LiveAggregator()
        agg(_event("grid_started", total=2, workers=1))
        agg(_event("job_cache_hit", index=0, source="journal"))
        assert agg.snapshot()["jobs_running"] == 0

    def test_throughput_and_eta_from_window(self):
        agg = LiveAggregator()
        agg(_event("grid_started", total=10, workers=1))
        # 4 completions spaced 1s apart -> ~1 job/s, 6 remaining.
        for i in range(4):
            agg(_event("job_started", index=i))
            agg(_event("job_finished", index=i, attempts=1,
                       elapsed_s=1.0, t=float(i)))
        snap = agg.snapshot()
        assert snap["throughput_jobs_per_s"] == 1.0
        assert snap["eta_s"] == 6.0

    def test_eta_unknown_without_completions(self):
        agg = LiveAggregator()
        agg(_event("grid_started", total=5, workers=1))
        assert agg.snapshot()["eta_s"] is None

    def test_worker_incident_counts(self):
        agg = LiveAggregator()
        agg(_event("worker_death", where="run", index=0))
        agg(_event("pool_rebuild", workers=4))
        agg(_event("worker_backoff", index=1, attempt=1, delay_s=0.1,
                   error="x"))
        snap = agg.snapshot()
        assert snap["worker_deaths"] == 1
        assert snap["pool_rebuilds"] == 1
        assert snap["worker_backoffs"] == 1

    def test_fleet_tick_progress_accumulates_machine_ticks(self):
        agg = LiveAggregator()
        agg(_event("fleet_tick_progress", ticks=1000, machines=64,
                   ticks_total=1000, t=0.0))
        agg(_event("fleet_tick_progress", ticks=500, machines=64,
                   ticks_total=1500, t=1.0))
        snap = agg.snapshot()
        assert snap["fleet_machine_ticks"] == 96_000
        assert snap["fleet_machine_ticks_per_s"] == 32_000.0

    def test_registry_mirrors_snapshot(self):
        agg = LiveAggregator()
        agg(_event("grid_started", total=3, workers=1))
        agg(_event("job_started", index=0))
        agg(_event("job_finished", index=0, attempts=1, elapsed_s=0.5))
        text = prometheus_text(agg.registry())
        assert "repro_live_jobs_total 3" in text
        assert "repro_live_jobs_done 1" in text
        assert 'repro_live_events_total{kind="job_finished"} 1' in text
        assert "repro_live_eta_seconds" in text


class TestRenderTop:
    def test_render_contains_progress_and_outcomes(self):
        agg = LiveAggregator()
        agg(_event("grid_started", total=4, workers=2))
        agg(_event("job_started", index=0))
        agg(_event("job_finished", index=0, attempts=1, elapsed_s=0.2))
        text = render_top(agg.snapshot())
        assert "1/4" in text
        assert "ok=1" in text
        assert "fleet" not in text  # no fleet ticks -> line omitted

    def test_render_tolerates_empty_snapshot(self):
        assert "0/0" in render_top({})


class TestMetricsServer:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()

    def test_endpoints(self):
        bus = EventBus()
        server = serve_bus(bus, port=0, ring_capacity=16)
        try:
            bus.emit("grid_started", total=2, workers=1)
            bus.emit("job_started", index=0)
            bus.emit("job_finished", index=0, attempts=1, elapsed_s=0.1)

            status, ctype, body = self._get(f"{server.url}/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert b"repro_live_jobs_done 1" in body

            status, ctype, body = self._get(f"{server.url}/snapshot")
            assert status == 200
            payload = json.loads(body)
            assert payload["schema"] == "repro-metrics/1"
            assert payload["live"]["jobs_total"] == 2

            status, _ctype, body = self._get(f"{server.url}/events")
            assert status == 200
            events = json.loads(body)["events"]
            assert [e["kind"] for e in events] == [
                "grid_started", "job_started", "job_finished",
            ]

            status, _ctype, body = self._get(f"{server.url}/healthz")
            assert (status, body) == (200, b"ok\n")
        finally:
            server.close()

    def test_unknown_path_404(self):
        server = MetricsServer(LiveAggregator(), port=0)
        try:
            try:
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
                raise AssertionError("expected HTTP 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            server.close()

    def test_binds_loopback_only(self):
        server = MetricsServer(LiveAggregator(), port=0)
        try:
            assert server._httpd.server_address[0] == "127.0.0.1"
        finally:
            server.close()

    def test_scrape_midstream_is_consistent(self):
        """A scrape between events sees a complete fold, never a torn
        update (the aggregator locks both sides)."""
        bus = EventBus()
        server = serve_bus(bus, port=0)
        try:
            bus.emit("grid_started", total=100, workers=4)
            for i in range(25):
                bus.emit("job_started", index=i)
                bus.emit("job_finished", index=i, attempts=1,
                         elapsed_s=0.01)
                if i % 10 == 0:
                    _status, _ctype, body = self._get(
                        f"{server.url}/snapshot")
                    live = json.loads(body)["live"]
                    assert live["jobs_done"] == live["jobs_finished"]
                    assert live["jobs_done"] <= 100
        finally:
            server.close()
