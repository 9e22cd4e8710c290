"""The fleet stage of ``run_grid``: batch homogeneous jobs per tick.

With ``engine="fleet"``, :func:`~repro.runner.executor.run_grid`
resolves journal replays and cache hits as usual and then hands the
remaining jobs to :func:`run_fleet_stage`.  Scenario specs whose parsed
systems are fleet-eligible (see :func:`repro.fleet.check_fleet_supported`)
are grouped by machine topology, tick length, and duration, packed into
:class:`~repro.fleet.FleetEngine` batches of up to :data:`FLEET_SIZE`
members, and advanced N machines per tick.  Everything else — registry
experiments, ineligible scenarios, ragged remainders that are not worth
a batch — is left to ``run_grid``'s own serial or supervised-pool path.

Results are byte-identical to the pool path: a fleet member is the same
:class:`~repro.system.System` built the same way ``execute_spec``
builds it, the engines are differentially tested against each other
(``repro.validate.fleet``, tests/test_fleet_equivalence.py), and the
result dict is assembled by the same export calls.  Cache entries and
journal records are therefore interchangeable between engines — a sweep
can resume under ``--engine fleet`` what it started under ``pool`` and
vice versa.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.runner.executor import (
    GridReport,
    JobOutcome,
    run_grid,
    scenario_result,
)
from repro.runner.spec import JobSpec

#: Members per fleet batch.  64 machines keeps every per-tick array in
#: cache-friendly territory; larger groups split into chunks of this.
FLEET_SIZE = 64

#: Smallest group worth vectorizing.  A batch of one machine pays the
#: SoA attach/flush overhead for no broadcast win, so singletons ride
#: the pool path with everything else.
MIN_FLEET_BATCH = 2


def _build_member(spec: JobSpec):
    """Parse one scenario spec and build its System, or explain why not.

    Returns ``(scenario, system, None)`` for a fleet-eligible job and
    ``(None, None, reason)`` otherwise.  Build errors are not raised
    here — the pool path will surface them with the executor's full
    retry/quarantine machinery.
    """
    from repro.fleet import FleetUnsupported, check_fleet_supported
    from repro.scenario import parse_scenario
    from repro.system import System

    if spec.experiment is not None:
        return None, None, "experiment specs always run on the pool"
    data = spec.scenario_data()
    if data.get("obs"):
        return None, None, "observability requested"
    if data.get("options"):
        return None, None, "run options requested"
    try:
        scenario = parse_scenario(data)
        system = System(
            scenario.config,
            scenario.workload,
            policy=scenario.policy,
        )
        check_fleet_supported(system)
    except FleetUnsupported as exc:
        return None, None, str(exc)
    except Exception as exc:
        return None, None, f"build failed ({type(exc).__name__}: {exc})"
    return scenario, system, None


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
    :data:`MIN_FLEET_BATCH`, in a batch that raised, or not reached
    before ``stop_event`` was set — are the caller's to run.  Returns
    the :class:`repro.fleet.FleetStats` merged over every batch that
    completed, or ``None`` if none did.
    """
    from repro.fleet import FleetEngine, FleetStats

    groups: dict[tuple, list[tuple[int, object, object]]] = {}
    for i in indices:
        scenario, system, _reason = _build_member(specs[i])
        if scenario is not None:
            groups.setdefault(_machine_key(scenario), []).append(
                (i, scenario, system)
            )
    batches: list[list[tuple[int, object, object]]] = []
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
        batch_start = time.monotonic()
        if bus is not None:
            bus.emit("fleet_chunk_started", chunk=batch_no,
                     members=len(chunk))
        for i, _scenario, _system in chunk:
            start(i, engine="fleet")
        try:
            engine = FleetEngine([system for _i, _sc, system in chunk])
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
                         error=f"{type(exc).__name__}: {exc}")
            continue
        if fleet_stats is None:
            fleet_stats = FleetStats()
        fleet_stats.merge(engine.stats)
        elapsed = time.monotonic() - batch_start
        per_job = elapsed / len(chunk)
        for (i, scenario, _system), result in zip(chunk, results):
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
