"""The fleet stage of ``run_grid``: batch homogeneous jobs per tick.

With ``engine="fleet"``, :func:`~repro.runner.executor.run_grid`
resolves journal replays and cache hits as usual and then hands the
remaining jobs to :func:`run_fleet_stage`.  Each scenario spec is parsed
once; those whose configuration the arrays model (see
:func:`repro.fleet.fleet_config_reasons`) are grouped by machine
topology, tick length, and duration, packed into
:class:`~repro.fleet.FleetEngine` batches of up to :data:`FLEET_SIZE`
members, and advanced N machines per tick.  A member's
:class:`~repro.system.System` is built only when its batch is about to
run.  Everything else — registry experiments, ineligible scenarios,
ragged remainders that are not worth a batch — is left to
``run_grid``'s own serial or supervised-pool path, which builds it once.

Results are byte-identical to the pool path: a fleet member is the same
:class:`~repro.system.System` built the same way ``execute_spec``
builds it, the engines are differentially tested against each other
(``repro.validate.fleet_lockstep``, tests/test_fleet_equivalence.py), and the
result dict is assembled by the same export calls.  Cache entries and
journal records are therefore interchangeable between engines — a sweep
can resume under ``--engine fleet`` what it started under ``pool`` and
vice versa.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.resilience.supervisor import _describe
from repro.runner.executor import (
    GridReport,
    JobOutcome,
    run_grid,
    scenario_result,
)
from repro.runner.spec import JobSpec
from repro.scenario import read_scenario

#: Members per fleet batch.  64 machines keeps every per-tick array in
#: cache-friendly territory; larger groups split into chunks of this.
FLEET_SIZE = 64

#: Smallest group worth vectorizing.  A batch of one machine pays the
#: SoA attach/flush overhead for no broadcast win, so singletons ride
#: the pool path with everything else.
MIN_FLEET_BATCH = 2


def _fleet_candidate(spec: JobSpec):
    """Parse one scenario spec and say whether the fleet can run it.

    Returns ``(scenario, None)`` for a job with the default run options
    whose configuration the arrays model, and ``(None, reason)``
    otherwise.  Nothing is built here, and parse errors are not raised —
    the pool path will surface them with the executor's full
    retry/quarantine machinery.
    """
    from repro.api import RunOptions
    from repro.fleet import fleet_config_reasons

    if spec.experiment is not None:
        return None, "experiment specs always run on the pool"
    try:
        scenario, options = read_scenario(spec.scenario_data())
    except Exception as exc:
        return None, f"build failed ({_describe(exc)})"
    if options != RunOptions():
        return None, f"run options requested: {options}"
    reasons = fleet_config_reasons(
        scenario.config, scenario.workload, scenario.policy
    )
    if reasons:
        return None, "not fleet-eligible: " + "; ".join(reasons)
    return scenario, None


def _machine_key(scenario) -> tuple:
    """Grouping key: everything the fleet requires members to share."""
    config = scenario.config
    return (
        config.machine,
        config.tick_ms,
        float(scenario.duration_s),
    )


def run_fleet_stage(
    specs: Sequence[JobSpec],
    indices: Sequence[int],
    start: Callable[..., None],
    finish: Callable[..., None],
    stop_event=None,
    bus=None,
):
    """Run the fleet-eligible jobs among ``indices`` in vectorized batches.

    Each member goes through ``start(i, engine="fleet")`` before its
    batch runs and ``finish(i, outcome, engine="fleet")`` after, the
    callbacks ``run_grid`` gives its serial and pool paths.  Jobs left
    unfinished — ineligible, in a chunk smaller than
    :data:`MIN_FLEET_BATCH`, in a batch that failed to build or raised,
    or not reached before ``stop_event`` was set — are the caller's to
    run.  Returns the :class:`repro.fleet.FleetStats` merged over every
    batch that completed, or ``None`` if none did.
    """
    from repro.fleet import FleetEngine, FleetStats
    from repro.system import System

    groups: dict[tuple, list[tuple[int, object]]] = {}
    for i in indices:
        scenario, _reason = _fleet_candidate(specs[i])
        if scenario is not None:
            groups.setdefault(_machine_key(scenario), []).append((i, scenario))
    batches: list[list[tuple[int, object]]] = []
    for key in sorted(groups, key=str):
        group = groups[key]
        for lo in range(0, len(group), FLEET_SIZE):
            chunk = group[lo:lo + FLEET_SIZE]
            if len(chunk) >= MIN_FLEET_BATCH:
                batches.append(chunk)

    fleet_stats = None
    for batch_no, chunk in enumerate(batches):
        if stop_event is not None and stop_event.is_set():
            break
        try:
            systems = [
                System(scenario.config, scenario.workload,
                       policy=scenario.policy)
                for _i, scenario in chunk
            ]
        except Exception:
            continue  # the pool reports the build error per job
        batch_start = time.monotonic()
        if bus is not None:
            bus.emit("fleet_chunk_started", chunk=batch_no,
                     members=len(chunk))
        for i, _scenario in chunk:
            start(i, engine="fleet")
        try:
            engine = FleetEngine(systems)
            engine.event_bus = bus
            duration_s = chunk[0][1].duration_s
            engine.run_for(duration_s)
            results = engine.results(duration_s)
        except Exception as exc:
            # A batch failure says nothing about which member is at
            # fault; leave them all to the pool's blame machinery.
            if bus is not None:
                bus.emit("fleet_chunk_finished", chunk=batch_no,
                         members=len(chunk), ok=False,
                         error=_describe(exc))
            continue
        if fleet_stats is None:
            fleet_stats = FleetStats()
        fleet_stats.merge(engine.stats)
        elapsed = time.monotonic() - batch_start
        per_job = elapsed / len(chunk)
        for (i, scenario), result in zip(chunk, results):
            finish(i, JobOutcome(
                spec=specs[i],
                result=scenario_result(scenario, result),
                attempts=1,
                elapsed_s=per_job,
            ), engine="fleet")
        if bus is not None:
            bus.emit("fleet_chunk_finished", chunk=batch_no,
                     members=len(chunk), ok=True, wall_s=elapsed)
    return fleet_stats


def run_grid_fleet(specs: Sequence[JobSpec], **kwargs) -> GridReport:
    """:func:`run_grid` with ``engine="fleet"``."""
    return run_grid(specs, engine="fleet", **kwargs)
