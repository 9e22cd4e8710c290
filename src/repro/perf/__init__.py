"""Fast-vs-scalar correctness harness and the ``BENCH_perf.json`` snapshot.

The harness runs pinned reference scenarios twice — once through the
batched fast path, once through the scalar reference path — and
asserts that the two paths produce byte-identical ``scalar_summary()``
dicts.  It also runs the pinned fleet batch and re-checks a member
subset against fresh scalar runs (``members_identical``).  Each path
is timed once, and the payload is written to ``BENCH_perf.json`` as a
one-shot snapshot.

    from repro.perf import run_benchmarks, write_bench_json

    payload = run_benchmarks()
    write_bench_json(payload)

or, from the command line::

    python -m repro perf
    python -m repro perf --scenario mixed-16cpu --duration 60

The performance record across commits is not kept here: a checkout's
``tools/bench_ledger.py`` runs the repository benchmark (``perfbench/``)
and appends its results to ``BENCH_history.jsonl``.
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
    "FLEET_SCENARIO",
    "FLEET_SEEDS",
    "HEADLINE_SCENARIO",
    "PinnedScenario",
    "REFERENCE_SCENARIOS",
    "format_bench_report",
    "profile_scenario",
    "run_benchmarks",
    "run_fleet_benchmark",
    "run_scenario",
    "scenario_by_name",
    "strip_timings",
    "write_bench_json",
]
