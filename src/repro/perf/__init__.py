"""Performance benchmarking of the tick loop.

The harness runs pinned reference scenarios twice — once through the
batched fast path, once through the scalar reference path — reports
ticks/sec and wall-clock for each, asserts that the two paths produce
byte-identical ``scalar_summary()`` dicts, and writes the results to
``BENCH_perf.json`` so successive PRs accumulate a performance
trajectory.

    from repro.perf import run_benchmarks, write_bench_json

    payload = run_benchmarks()
    write_bench_json(payload)

or, from the command line::

    python -m repro perf
    python -m repro perf --scenario mixed-16cpu --duration 60
"""

from repro.perf.harness import (
    BenchScenarioResult,
    format_bench_report,
    profile_scenario,
    run_benchmarks,
    run_fleet_benchmark,
    run_scenario,
    strip_timings,
    write_bench_json,
)
from repro.perf.history import (
    DEFAULT_THRESHOLD,
    HISTORY_PATH,
    HISTORY_SCHEMA,
    append_history,
    compare_entries,
    format_compare,
    history_entry,
    load_history,
    payload_digest,
    profile_diff,
    resolve_reference,
)
from repro.perf.scenarios import (
    FLEET_SCENARIO,
    FLEET_SEEDS,
    HEADLINE_SCENARIO,
    REFERENCE_SCENARIOS,
    PinnedScenario,
    scenario_by_name,
)

__all__ = [
    "BenchScenarioResult",
    "DEFAULT_THRESHOLD",
    "FLEET_SCENARIO",
    "FLEET_SEEDS",
    "HEADLINE_SCENARIO",
    "HISTORY_PATH",
    "HISTORY_SCHEMA",
    "PinnedScenario",
    "REFERENCE_SCENARIOS",
    "append_history",
    "compare_entries",
    "format_bench_report",
    "format_compare",
    "history_entry",
    "load_history",
    "payload_digest",
    "profile_diff",
    "profile_scenario",
    "run_benchmarks",
    "run_fleet_benchmark",
    "run_scenario",
    "scenario_by_name",
    "strip_timings",
    "write_bench_json",
]
