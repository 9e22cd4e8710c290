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
