"""The traced run: per-layer counts and self times, measured from outside.

Nothing inside the program changes.  While a traced unit runs, the
public functions at each layer boundary are replaced by wrappers that
record a span (name, start, end, parent span, job) and put back when
the unit ends.  Each name is patched where its caller looks it up:
``run_grid``'s ``run_fn=execute_spec`` default is bound when the
function is defined, so the default itself is swapped, and names that
callers import at call time are patched on the module they import from.

Calls made once per tick or more (the policy hooks, spec hashing,
journal appends) are folded into counters instead of spans.  A layer's
self time is its span time minus the time of the spans and folded calls
inside it.  Every count is then checked against a counter the program
keeps itself -- cache statistics, ``GridReport.fleet_stats``, the
journal's line count, jobs x ticks per job -- so a wrapper that misses
calls fails the run instead of under-reporting.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pathlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

#: Tick phases of the program's own profiler, in its report order.
PHASES = ("wake_fork", "dispatch", "execute", "thermal", "throttle",
          "housekeeping", "sample")


class UnitTrace:
    """Spans and counters of one traced unit."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []     # [span id, child seconds, name]
        self.count: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.values: Counter = Counter()
        self.job_s: list[float] = []
        self.caches: dict[int, object] = {}
        self.job: str | None = None
        self._next_id = 0

    def open(self, name: str) -> list:
        frame = [self._next_id, 0.0, name]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        name = frame[2]
        duration = end - start
        self.count[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((name, start, end, frame[0],
                           parent[0] if parent is not None else None,
                           self.job))

    def fold(self, name: str, duration: float) -> None:
        self.count[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration
        if self.stack:
            self.stack[-1][1] += duration

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self.stack)


def _span(ut: UnitTrace, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        frame = ut.open(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            ut.close(frame, start, perf_counter())
        if after is not None:
            after(args, result, token)
        return result
    return wrapper


def _fold(ut: UnitTrace, name: str, fn, busy: dict):
    # ``busy`` guards delegation: EnergyAwarePolicy hands some calls to
    # its BaselinePolicy fallback, which is one call, not two.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if busy.get(name):
            return fn(*args, **kwargs)
        busy[name] = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ut.fold(name, perf_counter() - start)
            busy[name] = False
    return wrapper


class Tracer:
    """Installs the boundary wrappers for one unit at a time."""

    def __init__(self) -> None:
        self.units: list[UnitTrace] = []

    @contextlib.contextmanager
    def active(self, run_fn):
        """Patch every boundary; yields the traced job function."""
        ut = UnitTrace()
        undo = _install(ut)
        try:
            yield _job_wrapper(ut, run_fn)
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self.units.append(ut)

    def write(self, path: pathlib.Path, table: dict | None = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans_fields": ["name", "start", "end", "id", "parent", "job"],
            "units": [
                {"spans": ut.spans, "counts": dict(ut.count),
                 "self_s": dict(ut.self_s), "values": dict(ut.values)}
                for ut in self.units
            ],
            "layers": table,
        }
        path.write_text(json.dumps(doc))


def _job_wrapper(ut: UnitTrace, run_fn):
    @functools.wraps(run_fn)
    def job(spec):
        ut.job = f"job-{ut.count['runner.job']}"
        if ut.inside("runner.run_grid_fleet"):
            ut.values["fleet_pool_jobs"] += 1
        frame = ut.open("runner.job")
        start = perf_counter()
        try:
            return run_fn(spec)
        finally:
            end = perf_counter()
            ut.close(frame, start, end)
            ut.job_s.append(end - start)
            ut.job = None
    return job


def _install(ut: UnitTrace) -> list[tuple]:
    """Wrap every boundary; returns (owner, attr, original) to undo."""
    import repro.analysis.export as export
    import repro.analysis.report as report
    import repro.analysis.stats as stats
    import repro.resilience as resilience
    import repro.resilience.journal as journal
    import repro.runner as runner
    import repro.runner.executor as executor
    import repro.runner.fleet_grid as fleet_grid
    import repro.scenario as scenario
    import repro.scenarios as scenarios
    import repro.system as system
    from repro.api import SimulationResult
    from repro.core.policy import BaselinePolicy, EnergyAwarePolicy
    from repro.fleet.engine import FleetEngine
    from repro.runner.cache import ResultCache
    from repro.runner.spec import JobSpec
    from repro.sim.engine import Engine

    undo: list[tuple] = []
    original_run_grid = executor.run_grid  # before it is wrapped below

    def patch(owners, attr, wrapper):
        for owner in owners:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def span(owners, attr, name, **hooks):
        patch(owners, attr, _span(ut, name, getattr(owners[0], attr), **hooks))

    busy: dict = {}

    def fold(owners, attr, name):
        patch(owners, attr, _fold(ut, name, getattr(owners[0], attr), busy))

    # runner
    span([executor, runner, fleet_grid], "run_grid", "runner.run_grid")
    span([fleet_grid, runner], "run_grid_fleet", "runner.run_grid_fleet")
    default_job = _job_wrapper(ut, executor.execute_spec)
    defaults = original_run_grid.__defaults__
    undo.append((original_run_grid, "__defaults__", defaults))
    original_run_grid.__defaults__ = tuple(
        default_job if d is executor.execute_spec else d for d in defaults
    )
    # scenario layer
    span([scenario], "parse_scenario", "scenario.parse")
    span([scenarios], "expand_generated", "scenarios.expand")
    fold([JobSpec], "content_hash", "runner.spec.hash")
    # simulation
    span([system.System], "__init__", "system.build")
    span([system], "build_calibrated_estimator", "core.estimator.calibrate")

    def engine_before(args):
        return args[0].clock.ticks

    def engine_after(args, _result, ticks_before):
        ut.values["engine_ticks"] += args[0].clock.ticks - ticks_before

    span([Engine], "run_for", "sim.engine.run",
         before=engine_before, after=engine_after)
    # policies
    for cls in (BaselinePolicy, EnergyAwarePolicy):
        fold([cls], "periodic_balance", "core.balance")
        fold([cls], "check_active_migration", "core.hot_check")
        fold([cls], "place_new_task", "core.place")
    # fleet

    def fleet_after_init(args, _result, _token):
        ut.values["fleet_members"] += len(args[0].systems)

    def fleet_before_run(args):
        return args[0].clock.ticks

    def fleet_after_run(args, _result, ticks_before):
        engine = args[0]
        ut.values["fleet_machine_ticks"] += (
            (engine.clock.ticks - ticks_before) * engine.n_machines
        )

    span([FleetEngine], "__init__", "fleet.attach", after=fleet_after_init)
    span([FleetEngine], "run_for", "fleet.run",
         before=fleet_before_run, after=fleet_after_run)
    span([FleetEngine], "results", "fleet.results")
    # export
    span([SimulationResult], "scalar_summary", "export.scalar_summary")
    span([export], "run_summary", "export.run_summary")
    # I/O

    def cache_after_get(args, result, _token):
        ut.caches[id(args[0])] = args[0]
        if result is not None:
            ut.values["cache_hits"] += 1

    def cache_after_put(args, path, _token):
        ut.caches[id(args[0])] = args[0]
        ut.values["cache_bytes"] += path.stat().st_size

    span([ResultCache], "get", "runner.cache.get", after=cache_after_get)
    span([ResultCache], "put", "runner.cache.put", after=cache_after_put)
    span([journal.SweepJournal], "record_start", "resilience.journal.record")
    span([journal.SweepJournal], "record_outcome", "resilience.journal.record")
    fold([journal.SweepJournal], "_append", "resilience.journal.append")
    span([resilience, journal], "replay_journal", "resilience.journal.replay")
    # aggregation
    span([stats], "summarize_scalars", "analysis.summarize")
    span([report], "format_scalar_summaries", "analysis.format")
    return undo


# -- the per-layer table ----------------------------------------------------
def _fleet_stats(unit) -> dict:
    total: Counter = Counter()
    for rep in unit.reports:
        if rep.fleet_stats is not None:
            total.update(rep.fleet_stats.as_dict())
    return total


def _exec_retries(unit) -> int:
    return sum(rep.exec_stats.retries for rep in unit.reports
               if rep.exec_stats is not None)


def self_check(workload, ut: UnitTrace, unit) -> None:
    """Traced counts must equal the program's own exact counters."""
    problems = []

    def expect(what, traced, program):
        if traced != program:
            problems.append(f"{what}: traced {traced}, program {program}")

    caches = list(ut.caches.values())
    expect("cache lookups", ut.count["runner.cache.get"],
           sum(c.stats.hits + c.stats.misses for c in caches))
    expect("cache hits", ut.values["cache_hits"],
           sum(c.stats.hits for c in caches))
    expect("cache stores", ut.count["runner.cache.put"],
           sum(c.stats.stores for c in caches))
    fleet = _fleet_stats(unit)
    expect("fleet members", ut.values["fleet_members"], fleet["members"])
    expect("fleet batches", ut.count["fleet.attach"], fleet["batches"])
    expect("fleet machine-ticks", ut.values["fleet_machine_ticks"],
           fleet["machine_ticks"])
    if unit.journal_path is not None:
        lines = unit.journal_path.read_bytes().count(b"\n")
        expect("journal appends", ut.count["resilience.journal.append"], lines)
    expect("simulated ticks", ut.values["engine_ticks"],
           ut.count["runner.job"] * workload.ticks_per_job[0])
    if problems:
        raise RuntimeError("traced run disagrees with the program's counters: "
                           + "; ".join(problems))


def _tail(samples: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it."""
    if len(samples) <= 10:
        return max(samples, default=0.0)
    return sorted(samples)[len(samples) - 11]


def _migrations(unit) -> int:
    cold = unit.reports[0]
    return sum(o.result["summary"]["migrations"]["total"]
               for o in cold.outcomes if o.ok and not o.cached)


def phase_fractions(workload, expected: list[str]) -> tuple[dict, set[int]]:
    """The program's own tick-phase profile over every job, and the
    jobs whose profiled result differs from ``expected``."""
    import child
    from repro.api import RunOptions
    from repro.obs import ObservabilityConfig
    from repro.scenario import parse_scenario

    totals: Counter = Counter()
    differing = set()
    options = RunOptions(obs=ObservabilityConfig(audit=False, metrics=False,
                                                 profiling=True))
    for i, (spec, want) in enumerate(zip(workload.specs, expected)):
        result = parse_scenario(child.scenario_data(spec)).run(options=options)
        for phase, row in result.observer.phase_report()["phases"].items():
            totals[phase] += row["total_s"]
        if child.digest(child.canonical(result.scalar_summary())) != want:
            differing.add(i)
    whole = sum(totals.values())
    return ({p: totals[p] / whole if whole else 0.0 for p in PHASES},
            differing)


def layer_table(workload, tracer: Tracer, plain: list, traced: list,
                import_s: float, salt_s: float, phases: dict | None) -> dict:
    """Per-layer metrics: counts of the first traced unit (every traced
    unit must repeat them exactly), times as medians over traced units,
    scaled to nominal host speed like the end-to-end metrics."""
    for ut, unit in zip(tracer.units, traced):
        self_check(workload, ut, unit)
    first = tracer.units[0]
    for ut in tracer.units[1:]:
        if ut.count != first.count or ut.values != first.values:
            raise RuntimeError("traced units disagree on their counts")

    def timings(unit) -> list:
        return [unit.cold, *unit.warm]

    def raw(unit) -> float:
        return sum(t.raw_s for t in timings(unit))

    def corrected(unit) -> float:
        return sum(t.corrected_s for t in timings(unit))

    factors = [corrected(u) / raw(u) for u in traced]

    def secs(*names) -> float:
        return statistics.median(
            sum(ut.self_s[n] for n in names) * f
            for ut, f in zip(tracer.units, factors)
        )

    def total(name) -> float:
        return statistics.median(
            ut.total_s[name] * f for ut, f in zip(tracer.units, factors)
        )

    def wall(units) -> float:
        return statistics.median(corrected(u) for u in units)

    c, v = first.count, first.values
    ticks = v["engine_ticks"]
    fleet_ticks = v["fleet_machine_ticks"]
    fleet = _fleet_stats(traced[0])
    migrations = _migrations(traced[0])
    job_ms = [s * 1e3 * factors[0] for s in first.job_s]
    gets = c["runner.cache.get"]
    unit0 = traced[0]
    rows = {
        "sim.engine.ticks": (ticks, "count"),
        "sim.engine.run_s": (secs("sim.engine.run"), "s"),
        "system.us_per_tick": (
            total("sim.engine.run") / ticks * 1e6 if ticks else 0.0, "us"),
    }
    for phase in PHASES:
        rows[f"system.phase.{phase}_frac"] = (
            (phases or {}).get(phase, 0.0), "ratio")
    rows.update({
        "core.balance_calls": (c["core.balance"], "count"),
        "core.balance_s": (secs("core.balance"), "s"),
        "core.hot_checks": (c["core.hot_check"], "count"),
        "core.hot_check_s": (secs("core.hot_check"), "s"),
        "core.placements": (c["core.place"], "count"),
        "core.place_s": (secs("core.place"), "s"),
        "core.migrations": (migrations, "count"),
        "core.migrations_per_balance": (
            migrations / c["core.balance"] if c["core.balance"] else 0.0,
            "ratio"),
        "fleet.members": (v["fleet_members"], "count"),
        "fleet.batches": (c["fleet.attach"], "count"),
        "fleet.machine_ticks": (fleet_ticks, "count"),
        "fleet.flushes": (fleet["flushes"], "count"),
        "fleet.resyncs": (fleet["resyncs"], "count"),
        "fleet.housekeeping_fires": (fleet["housekeeping_fires"], "count"),
        "fleet.attach_s": (secs("fleet.attach"), "s"),
        "fleet.run_s": (secs("fleet.run"), "s"),
        "fleet.results_s": (secs("fleet.results"), "s"),
        "fleet.pool_fallback_jobs": (v["fleet_pool_jobs"], "count"),
        "fleet.us_per_machine_tick": (
            total("fleet.run") / fleet_ticks * 1e6 if fleet_ticks else 0.0,
            "us"),
        "system.builds": (c["system.build"], "count"),
        "system.build_s": (secs("system.build"), "s"),
        "core.estimator.calibrate_s": (secs("core.estimator.calibrate"), "s"),
        "scenario.parse_calls": (c["scenario.parse"], "count"),
        "scenario.parse_s": (secs("scenario.parse"), "s"),
        "scenarios.expand_s": (secs("scenarios.expand"), "s"),
        "runner.spec.hash_calls": (c["runner.spec.hash"], "count"),
        "runner.spec.hash_s": (secs("runner.spec.hash"), "s"),
        "export.calls": (
            c["export.scalar_summary"] + c["export.run_summary"], "count"),
        "export.s": (secs("export.scalar_summary", "export.run_summary"), "s"),
        "analysis.aggregate_s": (
            secs("analysis.summarize", "analysis.format"), "s"),
        "runner.cache.gets": (gets, "count"),
        "runner.cache.hit_ratio": (
            v["cache_hits"] / gets if gets else 0.0, "ratio"),
        "runner.cache.get_s": (secs("runner.cache.get"), "s"),
        "runner.cache.puts": (c["runner.cache.put"], "count"),
        "runner.cache.put_s": (secs("runner.cache.put"), "s"),
        "runner.cache.bytes_written": (v["cache_bytes"], "B"),
        "runner.cache.salt_s": (salt_s, "s"),
        "resilience.journal.appends": (c["resilience.journal.append"], "count"),
        "resilience.journal.append_s": (
            secs("resilience.journal.record", "resilience.journal.append"),
            "s"),
        "resilience.journal.bytes": (
            unit0.journal_path.stat().st_size
            if unit0.journal_path is not None else 0, "B"),
        "resilience.journal.replays": (
            c["resilience.journal.replay"], "count"),
        "resilience.journal.replay_s": (
            secs("resilience.journal.replay"), "s"),
        "runner.executor.jobs": (c["runner.job"], "count"),
        "runner.executor.retries": (_exec_retries(unit0), "count"),
        "runner.executor.job_p50_ms": (
            statistics.median(job_ms) if job_ms else 0.0, "ms"),
        "runner.executor.job_tail_ms": (_tail(job_ms), "ms"),
        "runner.executor.job_samples": (len(job_ms), "count"),
        "runner.executor.self_s": (
            secs("runner.run_grid", "runner.run_grid_fleet"), "s"),
        "host.raw_wall_s": (statistics.median(raw(u) for u in traced), "s"),
        "host.speed_factor": (statistics.median(factors), "ratio"),
        "host.ref_samples": (
            sum(len(t.kernel) for u in traced for t in timings(u)), "count"),
        "host.import_s": (import_s, "s"),
        "trace.overhead": (wall(traced) / wall(plain), "ratio"),
    })
    return rows
