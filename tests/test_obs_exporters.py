"""Exporter edge cases: byte-stability where scrapers are least
forgiving.

Prometheus scrapers and diff-based CI artifacts both depend on the
export being byte-stable — including the corners: empty registries,
hostile label values, histograms that never observed anything, and
dict-ordering independence across interpreter hash seeds.
"""

import json
import pathlib
import subprocess
import sys

from repro.fleet import FleetStats
from repro.obs.exporters import json_snapshot, prometheus_text
from repro.obs.metrics import MetricsRegistry


class TestEmptyRegistries:
    def test_empty_registry_renders_empty_string(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_empty_registry_json_snapshot(self):
        snap = json_snapshot(MetricsRegistry())
        assert snap == {"schema": "repro-metrics/1", "metrics": {}}

    def test_metric_without_samples_still_typed(self):
        registry = MetricsRegistry()
        registry.counter("repro_probe_total", "A counter nobody bumped.")
        text = prometheus_text(registry)
        assert "# TYPE repro_probe_total counter" in text
        # no sample line: only HELP/TYPE for the unbumped counter
        assert "repro_probe_total 0" not in text

    def test_two_exports_byte_identical(self):
        def build():
            registry = MetricsRegistry()
            registry.gauge("repro_b", "b").set(2.0)
            registry.gauge("repro_a", "a").set(1.0)
            registry.counter("repro_c_total", "c").inc(3.0,
                                                      {"kind": "x"})
            return registry

        assert prometheus_text(build()) == prometheus_text(build())
        assert json_snapshot(build()) == json_snapshot(build())


class TestLabelEscaping:
    def test_backslash_quote_newline(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_esc_total", "escape probe")
        counter.inc(1.0, {"path": 'C:\\tmp\n"quoted"'})
        text = prometheus_text(registry)
        assert r'path="C:\\tmp\n\"quoted\""' in text
        # the rendered line must stay a single physical line
        sample_lines = [l for l in text.splitlines()
                        if l.startswith("repro_esc_total{")]
        assert len(sample_lines) == 1

    def test_escaped_labels_round_trip_in_json(self):
        registry = MetricsRegistry()
        registry.counter("repro_esc_total", "escape probe").inc(
            1.0, {"path": 'a\\b"c\nd'})
        snap = json_snapshot(registry)
        clone = json.loads(json.dumps(snap))
        labels = clone["metrics"]["repro_esc_total"]["samples"][0]["labels"]
        assert labels == {"path": 'a\\b"c\nd'}


class TestZeroObservationHistogram:
    def test_declared_but_never_observed(self):
        registry = MetricsRegistry()
        registry.histogram("repro_lat_seconds", "latency",
                           buckets=(0.1, 1.0))
        text = prometheus_text(registry)
        assert "# TYPE repro_lat_seconds histogram" in text
        assert "_bucket" not in text  # no label set ever observed

    def test_single_observation_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", "latency",
                                  buckets=(0.1, 1.0))
        hist.observe(0.5)
        text = prometheus_text(registry)
        assert 'repro_lat_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_count 1" in text


class TestFleetCounters:
    def test_merge_feeds_aggregate_export(self):
        total = FleetStats()
        total.merge(FleetStats(machine_ticks=100, batches=1, members=2))
        total.merge(FleetStats(machine_ticks=300, batches=1, members=4,
                               resyncs=7))
        assert (total.machine_ticks, total.batches, total.members,
                total.resyncs) == (400, 2, 6, 7)


class TestHashSeedIndependence:
    """Exports must not depend on dict iteration order: render the same
    registry in fresh interpreters under three hash seeds."""

    PROGRAM = (
        "from repro.obs.exporters import json_snapshot, prometheus_text\n"
        "from repro.obs.metrics import MetricsRegistry\n"
        "import json\n"
        "r = MetricsRegistry()\n"
        "g = r.gauge('repro_z', 'z'); g.set(1.0, {'b': '2', 'a': '1'})\n"
        "g.set(2.0, {'d': '4', 'c': '3'})\n"
        "r.counter('repro_a_total', 'a').inc(5.0, {'kind': 'x'})\n"
        "h = r.histogram('repro_h', 'h', buckets=(0.5, 2.0))\n"
        "h.observe(1.0, {'q': 'v'})\n"
        "print(prometheus_text(r))\n"
        "print(json.dumps(json_snapshot(r), sort_keys=True))\n"
    )

    def test_exports_stable_across_hash_seeds(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", self.PROGRAM],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(src),
                     "PYTHONHASHSEED": hash_seed},
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
