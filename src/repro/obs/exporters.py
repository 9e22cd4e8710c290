"""Render a :class:`~repro.obs.metrics.MetricsRegistry` for consumers.

Two formats:

* Prometheus text exposition (``text/plain; version=0.0.4``) — what a
  scrape endpoint or node-exporter textfile collector would serve;
* a JSON snapshot — what the parallel runner embeds per job and the
  ``trace --format metrics-json`` subcommand prints.

Both render metrics sorted by name and samples sorted by label set, so
two exports of the same registry are byte-identical.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, Metric, MetricsRegistry

#: Schema tag for the JSON snapshot; bump on layout changes.
METRICS_SCHEMA = "repro-metrics/1"

#: Content type of the Prometheus text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4"


def _format_value(value: float) -> str:
    """Prometheus-style number: integers without the trailing ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _label_text(labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.metric_type}")
        if isinstance(metric, Histogram):
            for labels, counts, total, n in metric.samples():
                # Bucket counts are already cumulative (see
                # Histogram.observe), as the text format requires.
                for bound, count in zip(metric.bounds, counts):
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_label_text(labels, (('le', _format_value(bound)),))}"
                        f" {count}"
                    )
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_label_text(labels, (('le', '+Inf'),))} {n}"
                )
                lines.append(
                    f"{metric.name}_sum{_label_text(labels)} "
                    f"{_format_value(total)}"
                )
                lines.append(f"{metric.name}_count{_label_text(labels)} {n}")
        else:
            for labels, value in metric.samples():
                lines.append(
                    f"{metric.name}{_label_text(labels)} "
                    f"{_format_value(value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def runner_metrics_registry(
    exec_stats, cache_stats=None, fleet_stats=None,
) -> MetricsRegistry:
    """Mirror one sweep's resilience accounting into a registry.

    ``exec_stats`` is an :class:`repro.resilience.supervisor.ExecutorStats`
    and ``cache_stats`` a :class:`repro.runner.cache.CacheStats`; both are
    duck-typed (attribute reads only) so the obs layer keeps no runner
    import.  ``fleet_stats`` is a
    :class:`repro.fleet.engine.FleetStats` (also duck-typed) — the
    aggregate counters of a fleet-engine sweep, whose members cannot
    carry per-run observers.  The result renders through
    :func:`prometheus_text` / :func:`json_snapshot` like any other
    registry, e.g. for a CI artifact or a node-exporter textfile.
    """
    registry = MetricsRegistry()
    counters = (
        ("retries", "repro_runner_retries_total",
         "Job re-submissions after transient failures."),
        ("worker_crashes", "repro_runner_worker_crashes_total",
         "Worker processes that died mid-job."),
        ("pool_rebuilds", "repro_runner_pool_rebuilds_total",
         "Times the worker pool was torn down and rebuilt."),
        ("timeouts", "repro_runner_timeouts_total",
         "Jobs cancelled for exceeding their wall-clock deadline."),
        ("quarantined", "repro_runner_quarantined_total",
         "Poison jobs quarantined instead of retried."),
    )
    for attr, name, help_text in counters:
        registry.counter(name, help_text).set_sample(
            float(getattr(exec_stats, attr))
        )
    registry.gauge(
        "repro_runner_interrupted",
        "1 when the sweep was stopped before every job completed.",
    ).set(1.0 if getattr(exec_stats, "interrupted", False) else 0.0)
    if cache_stats is not None:
        cache_counters = (
            ("hits", "repro_runner_cache_hits_total",
             "Jobs served from the on-disk result cache."),
            ("misses", "repro_runner_cache_misses_total",
             "Cache lookups that had to run the job."),
            ("stores", "repro_runner_cache_stores_total",
             "Results written to the cache."),
            ("corrupt", "repro_runner_cache_corrupt_total",
             "Corrupt cache entries quarantined on read."),
        )
        for attr, name, help_text in cache_counters:
            registry.counter(name, help_text).set_sample(
                float(getattr(cache_stats, attr, 0))
            )
    if fleet_stats is not None:
        fleet_counters = (
            ("machine_ticks", "repro_fleet_machine_ticks_total",
             "Aggregate machine-ticks advanced by fleet engines."),
            ("batches", "repro_fleet_batches_total",
             "Fleet engine batches executed."),
            ("members", "repro_fleet_members_total",
             "Member systems advanced inside fleet batches."),
            ("flushes", "repro_fleet_flushes_total",
             "Full array-to-member state write-backs."),
            ("resyncs", "repro_fleet_resyncs_total",
             "Slot reloads of member task state into the arrays."),
            ("housekeeping_fires", "repro_fleet_housekeeping_fires_total",
             "Housekeeping cadences that fired a member call."),
        )
        for attr, name, help_text in fleet_counters:
            registry.counter(name, help_text).set_sample(
                float(getattr(fleet_stats, attr, 0))
            )
    return registry


def json_snapshot(registry: MetricsRegistry) -> dict:
    """The registry as a JSON-serialisable snapshot."""
    metrics: dict[str, dict] = {}
    for metric in registry.collect():
        entry: dict = {
            "type": metric.metric_type,
            "help": metric.help,
        }
        if isinstance(metric, Histogram):
            entry["samples"] = [
                {
                    "labels": dict(labels),
                    "buckets": {
                        _format_value(bound): count
                        for bound, count in zip(metric.bounds, counts)
                    },
                    "sum": total,
                    "count": n,
                }
                for labels, counts, total, n in metric.samples()
            ]
        else:
            entry["samples"] = [
                {"labels": dict(labels), "value": value}
                for labels, value in metric.samples()
            ]
        metrics[metric.name] = entry
    return {"schema": METRICS_SCHEMA, "metrics": metrics}
