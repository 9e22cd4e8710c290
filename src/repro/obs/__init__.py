"""Opt-in observability: audit log, metrics, trace export, profiling.

Enable with ``run_simulation(..., obs=True)`` (or an
:class:`ObservabilityConfig`); query via ``result.observer``.  The
Chrome-trace exporter works on any result — it re-projects the event
log the tracer always collects.

Sweep-scale telemetry (the run event bus and its sinks) is exported
here; the live HTTP endpoint lives in :mod:`repro.obs.live` and is
imported lazily by the CLI so the hot paths never pay for
``http.server``.
"""

from repro.obs.audit import AUDIT_SCHEMA, AUDIT_SITES, AuditLog, AuditRecord
from repro.obs.chrome_trace import (
    CHROME_TRACE_SCHEMA,
    chrome_trace,
    export_chrome_trace,
    migration_flow_events,
)
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
from repro.obs.exporters import (
    METRICS_SCHEMA,
    PROMETHEUS_CONTENT_TYPE,
    json_snapshot,
    prometheus_text,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import ObservabilityConfig, Observer
from repro.obs.profiling import TICK_PHASES, PhaseTimers

__all__ = [
    "AUDIT_SCHEMA",
    "AUDIT_SITES",
    "AuditLog",
    "AuditRecord",
    "CHROME_TRACE_SCHEMA",
    "chrome_trace",
    "export_chrome_trace",
    "migration_flow_events",
    "EVENT_KINDS",
    "RUN_EVENT_SCHEMA",
    "EventBus",
    "JsonlSink",
    "RingBufferSink",
    "RunEvent",
    "count_by_kind",
    "read_events",
    "METRICS_SCHEMA",
    "PROMETHEUS_CONTENT_TYPE",
    "json_snapshot",
    "prometheus_text",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityConfig",
    "Observer",
    "TICK_PHASES",
    "PhaseTimers",
]
