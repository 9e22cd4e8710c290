"""Fan a grid of job specs across supervised worker processes.

:func:`run_grid` is the engine of ``python -m repro sweep`` / ``batch``:
it resolves journal replays and cache hits first, then executes the
remaining specs — in this process when ``workers=1``, otherwise on a
:class:`~repro.resilience.supervisor.SupervisedPool`.  With
``engine="fleet"`` the fleet-eligible scenario jobs among them run
first, in vectorized batches (:mod:`repro.runner.fleet_grid`), and only
the rest reach the serial or pool path.  Simulations are
deterministic in their spec, so outcomes are returned in *input order*
and a sweep's aggregate is byte-identical whatever the worker count.

Semantics worth knowing:

* **Timeouts** apply wall-clock from the moment a job starts executing.
  A timed-out job fails permanently — a job that blew its budget once
  will blow it again, so it is not retried.  The stuck worker is
  terminated and the pool rebuilt, so the sweep keeps its full
  parallelism; innocent in-flight jobs are re-queued.
* **Retries** cover transient failures: any exception from the job
  earns up to ``retries`` re-submissions, spaced by deterministic
  capped exponential backoff (jitter seeded from the spec digest — see
  :func:`repro.resilience.supervisor.backoff_delay_s`).
* **Worker death** breaks the pool; the supervisor rebuilds it and
  re-runs the suspect jobs solo for definitive blame.  A job that kills
  a worker twice is quarantined (spec serialized under
  ``<cache>/quarantine/``) instead of retried; its victims are
  exonerated and complete normally.
* **Journaling**: with ``journal=`` every start/finish/failure is
  fsynced to an append-only journal; jobs the journal records as
  complete are never recomputed (their results ride in the journal, so
  resume works even with the cache disabled).
* **Interruption**: when ``stop_event`` is set (the CLI wires
  SIGINT/SIGTERM to it) the sweep drains gracefully — finished futures
  are kept, everything else is cancelled and reported with an
  ``interrupted`` outcome, and :attr:`GridReport.interrupted` tells the
  caller to print a resume command.
* **Degradation**: if a pool cannot be created (or workers die at
  startup repeatedly), everything left runs serially in-process.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.resilience.supervisor import (
    ExecutorStats,
    SupervisedPool,
    SupervisorConfig,
    _describe,
    backoff_delay_s,
)
from repro.runner.cache import CacheStats, ResultCache
from repro.runner.spec import JobSpec


def execute_spec(spec: JobSpec) -> dict:
    """Run one job in this process; returns its structured result.

    Experiment specs dispatch to the registry's structured entrypoint
    (:func:`repro.experiments.experiment_metrics`); scenario specs are
    read by :func:`repro.scenario.read_scenario` after overrides,
    duration and seed are merged in, and run with the switches it read.
    Imports happen here, not at module import, so spawning a pool does
    not pay for them twice.
    """
    if spec.experiment is not None:
        from repro.experiments import experiment_metrics

        return experiment_metrics(
            spec.experiment, duration_s=spec.duration_s, seed=spec.seed
        )
    from repro.scenario import read_scenario

    scenario, options = read_scenario(spec.scenario_data())
    result = scenario.run(options)
    out = scenario_result(scenario, result)
    if options.obs:
        # Per-job metrics ride along in sweep outputs.  The snapshot is
        # deterministic (mirrored counters and state gauges only — no
        # wall clocks), so it is safe inside cached results.
        out["metrics"] = result.metrics_snapshot()
        out["audit_sites"] = result.audit.sites_seen()
    return out


def scenario_result(scenario, result) -> dict:
    """The result dict of one scenario run, whichever engine ran it."""
    from repro.analysis.export import run_summary

    return {
        "experiment": None,
        "scenario": scenario.workload.name,
        "duration_s": scenario.duration_s,
        "seed": scenario.config.seed,
        "scalars": result.scalar_summary(),
        "summary": run_summary(result),
    }


@dataclass
class JobOutcome:
    """What happened to one spec: a result, a cache hit, or an error.

    ``resumed`` marks outcomes served from a journal replay (the job ran
    in a previous invocation of the sweep); ``quarantined`` marks poison
    jobs the supervisor refused to retry.
    """

    spec: JobSpec
    result: dict | None
    error: str | None = None
    attempts: int = 0
    cached: bool = False
    elapsed_s: float = 0.0
    quarantined: bool = False
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class GridReport:
    """Ordered outcomes of one :func:`run_grid` call.

    ``fleet_stats`` is filled only on ``engine="fleet"`` — aggregate
    :class:`repro.fleet.engine.FleetStats` across every fleet batch the
    sweep ran.
    """

    outcomes: list[JobOutcome]
    cache_stats: CacheStats | None
    wall_s: float
    exec_stats: ExecutorStats | None = None
    fleet_stats: object | None = None

    @property
    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def results(self) -> list[dict]:
        return [o.result for o in self.outcomes if o.ok]

    @property
    def interrupted(self) -> bool:
        """Whether the sweep was stopped before every job completed."""
        return self.exec_stats is not None and self.exec_stats.interrupted

    def scalar_samples(self) -> list[dict]:
        """The per-job scalar dicts, in spec order (failed jobs skipped)."""
        return [
            o.result["scalars"]
            for o in self.outcomes
            if o.ok and isinstance(o.result.get("scalars"), dict)
        ]


ProgressFn = Callable[[JobOutcome, int, int], None]


def run_grid(
    specs: Sequence[JobSpec],
    workers: int = 1,
    cache: ResultCache | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
    run_fn: Callable[[JobSpec], dict] = execute_spec,
    progress: ProgressFn | None = None,
    journal=None,
    stop_event=None,
    quarantine_dir: str | pathlib.Path | None = None,
    bus=None,
    engine: str = "pool",
) -> GridReport:
    """Execute every spec, consulting ``cache`` and ``journal`` if given.

    ``journal`` is a :class:`repro.resilience.journal.SweepJournal`:
    jobs it records as complete are returned without recomputation, and
    every lifecycle event of the remaining jobs is appended to it.
    ``stop_event`` (a ``threading.Event``) requests a graceful drain.
    ``quarantine_dir`` overrides where poison-job specs are serialized
    (default: ``<cache root>/quarantine`` when a cache is given,
    nowhere otherwise).  ``bus`` is an optional
    :class:`repro.obs.events.EventBus`; when given, job lifecycle and
    worker incidents are emitted as run events (telemetry only — it
    never alters execution or results).  ``engine="fleet"`` first runs
    the fleet-eligible scenario jobs in vectorized batches
    (:func:`repro.runner.fleet_grid.run_fleet_stage`); the jobs it
    leaves run serially or on the pool exactly as with ``"pool"``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if engine not in ("pool", "fleet"):
        raise ValueError(f"engine must be 'pool' or 'fleet', got {engine!r}")
    started = time.monotonic()
    specs = list(specs)
    engine_tag = {"engine": "fleet"} if engine == "fleet" else {}
    if bus is not None:
        bus.emit("grid_started", total=len(specs), workers=workers,
                 **engine_tag)
    stats = ExecutorStats()
    outcomes: dict[int, JobOutcome] = {}
    to_run: list[int] = []
    for i, spec in enumerate(specs):
        if journal is not None:
            prior = journal.completed_result(spec)
            if prior is not None:
                outcomes[i] = JobOutcome(
                    spec=spec, result=prior, cached=True, resumed=True
                )
                if bus is not None:
                    bus.emit("job_cache_hit", index=i, source="journal")
                continue
            if journal.is_quarantined(spec):
                outcomes[i] = JobOutcome(
                    spec=spec,
                    result=None,
                    error=journal.quarantine_error(spec)
                    or "quarantined in a previous run",
                    quarantined=True,
                    resumed=True,
                )
                if bus is not None:
                    bus.emit("job_quarantined", index=i, resumed=True,
                             error=outcomes[i].error or "")
                continue
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            outcomes[i] = JobOutcome(spec=spec, result=hit, cached=True)
            if bus is not None:
                bus.emit("job_cache_hit", index=i, source="cache")
            if journal is not None:
                # Journal the cache hit too: resume must not depend on
                # the cache still existing (or being enabled).
                journal.record_outcome(i, outcomes[i])
        else:
            to_run.append(i)

    def start(i: int, **data) -> None:
        if journal is not None:
            journal.record_start(i, specs[i])
        if bus is not None:
            bus.emit("job_started", index=i, **data)

    def finish(i: int, outcome: JobOutcome, **data) -> None:
        outcomes[i] = outcome
        if journal is not None:
            journal.record_outcome(i, outcome)
        _emit_outcome(bus, i, outcome, **data)

    fleet_stats = None
    if engine == "fleet" and to_run and not _stopped(stop_event):
        from repro.runner.fleet_grid import run_fleet_stage

        fleet_stats = run_fleet_stage(
            specs, to_run, start, finish, stop_event=stop_event, bus=bus,
        )
    pending = [i for i in to_run if i not in outcomes]
    if quarantine_dir is None and cache is not None:
        quarantine_dir = pathlib.Path(cache.root) / "quarantine"
    if pending and not _stopped(stop_event):
        config = SupervisorConfig(
            timeout_s=timeout_s,
            retries=retries,
            quarantine_dir=(
                pathlib.Path(quarantine_dir) if quarantine_dir is not None else None
            ),
        )
        if workers == 1 or len(pending) == 1:
            _run_serial(specs, pending, config, run_fn, stats, start, finish,
                        stop_event=stop_event, bus=bus)
        else:
            def record(i, result, error, attempts, elapsed_s, quarantined):
                finish(i, JobOutcome(
                    spec=specs[i], result=result, error=error,
                    attempts=attempts, elapsed_s=elapsed_s,
                    quarantined=quarantined,
                ))

            SupervisedPool(
                specs, pending, workers, run_fn, config, stats,
                record=record, on_start=start, stop_event=stop_event,
                bus=bus,
            ).run()
        leftover = [i for i in pending if i not in outcomes]
        if leftover and not stats.interrupted and not _stopped(stop_event):
            # Pool unavailable (or it gave up): finish serially.
            _run_serial(specs, leftover, config, run_fn, stats, start, finish,
                        stop_event=stop_event, bus=bus)
    if cache is not None:
        for i in to_run:
            outcome = outcomes.get(i)
            if outcome is not None and outcome.ok:
                cache.put(outcome.spec, outcome.result)

    for i, spec in enumerate(specs):
        if i not in outcomes:
            stats.interrupted = True
            outcomes[i] = JobOutcome(
                spec=spec, result=None,
                error="interrupted before completion",
            )

    ordered = [outcomes[i] for i in range(len(specs))]
    if bus is not None:
        bus.emit(
            "grid_finished",
            total=len(specs),
            failed=sum(1 for o in ordered if not o.ok),
            interrupted=stats.interrupted,
            wall_s=time.monotonic() - started,
            **engine_tag,
        )
    if progress is not None:
        for i, outcome in enumerate(ordered):
            progress(outcome, i, len(specs))
    return GridReport(
        outcomes=ordered,
        cache_stats=cache.stats if cache is not None else None,
        wall_s=time.monotonic() - started,
        exec_stats=stats,
        fleet_stats=fleet_stats,
    )


def _stopped(stop_event) -> bool:
    return stop_event is not None and stop_event.is_set()


def _emit_outcome(bus, index: int, outcome: JobOutcome, **data) -> None:
    """Mirror one terminal outcome onto the event bus (no-op without one).

    ``data`` rides on ``job_finished`` (the fleet stage tags its jobs).
    """
    if bus is None:
        return
    if outcome.ok:
        if outcome.cached:
            bus.emit("job_cache_hit", index=index, source="cache")
        else:
            bus.emit(
                "job_finished", index=index, attempts=outcome.attempts,
                elapsed_s=outcome.elapsed_s, **data,
            )
    elif outcome.quarantined:
        bus.emit("job_quarantined", index=index, error=outcome.error or "")
    else:
        bus.emit(
            "job_failed", index=index, attempts=outcome.attempts,
            error=outcome.error or "",
        )


def _run_serial(
    specs: Sequence[JobSpec],
    indices: Sequence[int],
    config: SupervisorConfig,
    run_fn: Callable[[JobSpec], dict],
    stats: ExecutorStats,
    start: Callable[..., None],
    finish: Callable[..., None],
    stop_event=None,
    bus=None,
) -> None:
    """In-process execution (no timeout enforcement — nothing to kill)."""
    for i in indices:
        if _stopped(stop_event):
            stats.interrupted = True
            return
        attempts = 0
        began = time.monotonic()
        while True:
            attempts += 1
            start(i, attempt=attempts)
            try:
                result = run_fn(specs[i])
            except Exception as exc:
                if attempts <= config.retries:
                    stats.retries += 1
                    delay = backoff_delay_s(
                        specs[i], attempts,
                        config.backoff_base_s, config.backoff_cap_s,
                    )
                    if bus is not None:
                        bus.emit("worker_backoff", index=i, attempt=attempts,
                                 delay_s=delay, error=_describe(exc))
                    time.sleep(delay)
                    continue
                outcome = JobOutcome(
                    spec=specs[i], result=None, error=_describe(exc),
                    attempts=attempts, elapsed_s=time.monotonic() - began,
                )
            else:
                outcome = JobOutcome(
                    spec=specs[i], result=result, attempts=attempts,
                    elapsed_s=time.monotonic() - began,
                )
            finish(i, outcome)
            break
