"""Live telemetry: an in-process metrics endpoint for running sweeps.

:class:`LiveAggregator` subscribes to a run :class:`~repro.obs.events.EventBus`
and folds the event stream into the numbers an operator actually wants
mid-flight — jobs done/total, failure and cache-hit counts, rolling
throughput and the ETA it implies, worker incidents, aggregate fleet
machine-ticks.  :class:`MetricsServer` serves that state from a
stdlib ``http.server`` thread:

* ``GET /metrics``  — Prometheus text exposition (scrape target);
* ``GET /snapshot`` — the ``repro-metrics/1`` JSON snapshot;
* ``GET /events``   — the newest events from the attached ring buffer;
* ``GET /healthz``  — liveness probe (``ok``).

The server binds ``127.0.0.1`` only — run telemetry is operational
data for the local operator, not a public surface — and is entirely
opt-in (``--serve-metrics``); when it is off, none of this module is
even imported by the hot paths.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.events import EventBus, RingBufferSink, RunEvent
from repro.obs.exporters import (
    PROMETHEUS_CONTENT_TYPE,
    json_snapshot,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry

#: Completions kept for the rolling-throughput estimate.
THROUGHPUT_WINDOW = 64


class LiveAggregator:
    """Fold the run event stream into live sweep state.

    Subscribe the instance itself to a bus (it is a sink callable).
    All reads go through :meth:`snapshot` / :meth:`registry`, which
    take the same lock the event path takes, so a scrape mid-sweep
    sees a consistent view.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self.jobs_total = 0
        self.jobs_finished = 0
        self.jobs_failed = 0
        self.jobs_quarantined = 0
        self.cache_hits = 0
        self.jobs_running = 0
        self.worker_deaths = 0
        self.pool_rebuilds = 0
        self.worker_backoffs = 0
        self.fleet_machine_ticks = 0
        self.events_by_kind: dict[str, int] = {}
        # (wall time, completions so far) pairs for the rolling rate.
        self._completions: deque[tuple[float, int]] = deque(
            maxlen=THROUGHPUT_WINDOW
        )
        self._fleet_rate_window: deque[tuple[float, int]] = deque(
            maxlen=THROUGHPUT_WINDOW
        )

    # -- the sink ----------------------------------------------------------
    def __call__(self, event: RunEvent) -> None:
        kind = event.kind
        data = event.data
        with self._lock:
            self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1
            if kind == "grid_started":
                self.jobs_total = int(data.get("total", 0))
            elif kind == "job_started":
                self.jobs_running += 1
            elif kind in ("job_finished", "job_failed", "job_quarantined",
                          "job_cache_hit"):
                if kind == "job_finished":
                    self.jobs_finished += 1
                elif kind == "job_failed":
                    self.jobs_failed += 1
                elif kind == "job_quarantined":
                    self.jobs_quarantined += 1
                else:
                    self.cache_hits += 1
                    self.jobs_finished += 1
                if kind != "job_cache_hit" and self.jobs_running > 0:
                    self.jobs_running -= 1
                self._completions.append((event.t, self.jobs_done_locked()))
            elif kind == "worker_death":
                self.worker_deaths += 1
            elif kind == "pool_rebuild":
                self.pool_rebuilds += 1
            elif kind == "worker_backoff":
                self.worker_backoffs += 1
            elif kind == "fleet_tick_progress":
                ticks = int(data.get("ticks", 0))
                machines = int(data.get("machines", 1))
                self.fleet_machine_ticks += ticks * machines
                self._fleet_rate_window.append(
                    (event.t, self.fleet_machine_ticks)
                )

    # -- derived numbers ---------------------------------------------------
    def jobs_done_locked(self) -> int:
        return self.jobs_finished + self.jobs_failed + self.jobs_quarantined

    @staticmethod
    def _window_rate(window: deque) -> float:
        """Units/second across a (time, cumulative count) window."""
        if len(window) < 2:
            return 0.0
        (t0, n0), (t1, n1) = window[0], window[-1]
        if t1 <= t0:
            return 0.0
        return (n1 - n0) / (t1 - t0)

    def snapshot(self) -> dict:
        """Plain-dict view of the live state (for ``repro top``)."""
        with self._lock:
            done = self.jobs_done_locked()
            rate = self._window_rate(self._completions)
            remaining = max(0, self.jobs_total - done)
            eta = remaining / rate if rate > 0 else float("inf")
            return {
                "elapsed_s": time.time() - self._started,
                "jobs_total": self.jobs_total,
                "jobs_done": done,
                "jobs_finished": self.jobs_finished,
                "jobs_failed": self.jobs_failed,
                "jobs_quarantined": self.jobs_quarantined,
                "jobs_running": self.jobs_running,
                "cache_hits": self.cache_hits,
                "throughput_jobs_per_s": rate,
                "eta_s": eta if eta != float("inf") else None,
                "worker_deaths": self.worker_deaths,
                "pool_rebuilds": self.pool_rebuilds,
                "worker_backoffs": self.worker_backoffs,
                "fleet_machine_ticks": self.fleet_machine_ticks,
                "fleet_machine_ticks_per_s":
                    self._window_rate(self._fleet_rate_window),
                "events_by_kind": dict(sorted(self.events_by_kind.items())),
            }

    def registry(self) -> MetricsRegistry:
        """The live state as a fresh metrics registry.

        Rebuilt per scrape — the aggregator's own counters are the
        source of truth and a scrape must not mutate shared state.
        """
        snap = self.snapshot()
        registry = MetricsRegistry()
        gauges = (
            ("repro_live_elapsed_seconds", "elapsed_s",
             "Wall-clock seconds since the aggregator started."),
            ("repro_live_jobs_total", "jobs_total",
             "Jobs in the grid being executed."),
            ("repro_live_jobs_done", "jobs_done",
             "Jobs with a terminal outcome so far."),
            ("repro_live_jobs_finished", "jobs_finished",
             "Jobs completed successfully (including cache hits)."),
            ("repro_live_jobs_failed", "jobs_failed",
             "Jobs that exhausted retries."),
            ("repro_live_jobs_quarantined", "jobs_quarantined",
             "Poison jobs quarantined."),
            ("repro_live_jobs_running", "jobs_running",
             "Jobs currently executing on workers."),
            ("repro_live_cache_hits", "cache_hits",
             "Jobs served from cache or journal replay."),
            ("repro_live_throughput_jobs_per_s", "throughput_jobs_per_s",
             "Rolling completion rate over the recent window."),
            ("repro_live_worker_deaths", "worker_deaths",
             "Worker processes lost mid-sweep."),
            ("repro_live_pool_rebuilds", "pool_rebuilds",
             "Worker pools torn down and rebuilt."),
            ("repro_live_worker_backoffs", "worker_backoffs",
             "Retry backoff waits taken."),
            ("repro_live_fleet_machine_ticks", "fleet_machine_ticks",
             "Aggregate machine-ticks advanced by fleet engines."),
            ("repro_live_fleet_machine_ticks_per_s",
             "fleet_machine_ticks_per_s",
             "Rolling aggregate fleet tick rate."),
        )
        for name, key, help_text in gauges:
            registry.gauge(name, help_text).set(float(snap[key]))
        eta = snap["eta_s"]
        registry.gauge(
            "repro_live_eta_seconds",
            "Estimated seconds to grid completion (-1 when unknown).",
        ).set(float(eta) if eta is not None else -1.0)
        events = registry.counter(
            "repro_live_events_total", "Run events observed, by kind."
        )
        for kind, count in snap["events_by_kind"].items():
            events.set_sample(float(count), {"kind": kind})
        return registry


def render_top(snap: dict) -> str:
    """Terminal rendering of a live snapshot (the ``repro top`` view)."""
    lines = []
    total = snap.get("jobs_total", 0)
    done = snap.get("jobs_done", 0)
    width = 30
    filled = int(width * done / total) if total else 0
    bar = "#" * filled + "-" * (width - filled)
    eta = snap.get("eta_s")
    eta_text = f"{eta:,.0f}s" if isinstance(eta, (int, float)) else "--"
    rate = snap.get("throughput_jobs_per_s", 0.0)
    lines.append(f"jobs     [{bar}] {done}/{total}"
                 f"  ({rate:.2f} jobs/s, eta {eta_text})")
    lines.append(
        f"outcomes ok={snap.get('jobs_finished', 0)}"
        f" failed={snap.get('jobs_failed', 0)}"
        f" quarantined={snap.get('jobs_quarantined', 0)}"
        f" cache-hits={snap.get('cache_hits', 0)}"
        f" running={snap.get('jobs_running', 0)}"
    )
    lines.append(
        f"workers  deaths={snap.get('worker_deaths', 0)}"
        f" rebuilds={snap.get('pool_rebuilds', 0)}"
        f" backoffs={snap.get('worker_backoffs', 0)}"
    )
    fleet_ticks = snap.get("fleet_machine_ticks", 0)
    if fleet_ticks:
        lines.append(
            f"fleet    {fleet_ticks:,} machine-ticks"
            f" ({snap.get('fleet_machine_ticks_per_s', 0.0):,.0f}/s)"
        )
    lines.append(f"elapsed  {snap.get('elapsed_s', 0.0):,.1f}s")
    return "\n".join(lines)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-live/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        live: "MetricsServer" = self.server.live  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = prometheus_text(live.aggregator.registry()).encode()
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/snapshot":
            payload = json_snapshot(live.aggregator.registry())
            payload["live"] = live.aggregator.snapshot()
            body = (json.dumps(payload, sort_keys=True, indent=2)
                    + "\n").encode()
            self._reply(200, "application/json", body)
        elif path == "/events":
            ring = live.ring
            events = [e.to_dict() for e in ring.events()] if ring else []
            payload = {"events": events,
                       "dropped": ring.dropped if ring else 0}
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            self._reply(200, "application/json", body)
        elif path == "/healthz":
            self._reply(200, "text/plain", b"ok\n")
        else:
            self._reply(404, "text/plain", b"not found\n")

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # pragma: no cover - silence
        pass


class MetricsServer:
    """Serve live sweep telemetry over HTTP from a daemon thread.

    Binds ``127.0.0.1`` only (see module docstring); ``port=0`` asks
    the OS for an ephemeral port, read back from :attr:`port`.
    """

    def __init__(
        self,
        aggregator: LiveAggregator,
        port: int = 0,
        ring: RingBufferSink | None = None,
    ) -> None:
        self.aggregator = aggregator
        self.ring = ring
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.live = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-live-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_bus(
    bus: EventBus, port: int = 0, ring_capacity: int = 1024
) -> MetricsServer:
    """Wire an aggregator + ring buffer onto ``bus`` and serve them."""
    aggregator = LiveAggregator()
    ring = RingBufferSink(ring_capacity)
    bus.subscribe(aggregator)
    bus.subscribe(ring)
    return MetricsServer(aggregator, port=port, ring=ring)
