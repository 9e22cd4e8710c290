"""Parallel experiment runner with on-disk result caching.

The pieces, bottom-up:

* :mod:`repro.runner.spec` — :class:`JobSpec`, a picklable description
  of one run (experiment or scenario + duration/seed/overrides) with a
  stable content hash;
* :mod:`repro.runner.cache` — :class:`ResultCache`, JSON files under
  ``.repro_cache/`` keyed by spec hash, salted by a digest of the
  package source so code changes invalidate stale results;
* :mod:`repro.runner.executor` — :func:`run_grid`, a supervised
  process-pool fan-out (per-job timeout, deterministic backoff retry,
  pool rebuild on worker death, poison-job quarantine, journal-backed
  resume, graceful drain — see :mod:`repro.resilience`) with serial
  fallback;
* :mod:`repro.runner.fleet_grid` — the fleet stage ``run_grid`` runs
  with ``engine="fleet"``: fleet-eligible scenario jobs advance N
  machines per tick on one :class:`repro.fleet.FleetEngine`, everything
  else stays on the pool (``python -m repro sweep --engine fleet``);
  :func:`run_grid_fleet` is shorthand for that call;
* :mod:`repro.runner.grid` — batch grid-file expansion for
  ``python -m repro batch``.

Typical library use::

    from repro.runner import ResultCache, run_grid, sweep_specs

    specs = sweep_specs("fig9", seeds="1..10", duration_s=200)
    report = run_grid(specs, workers=4, cache=ResultCache())
    samples = report.scalar_samples()   # one scalar dict per seed

See ``docs/running_experiments.md`` for the operations guide.
"""

from repro.runner.cache import (
    CacheStats,
    ResultCache,
    code_salt,
    default_cache_dir,
)
from repro.runner.executor import GridReport, JobOutcome, execute_spec, run_grid
from repro.runner.fleet_grid import run_grid_fleet
from repro.runner.grid import GridEntry, expand_grid, load_grid
from repro.runner.spec import JobSpec, parse_seeds, sweep_specs

__all__ = [
    "CacheStats",
    "GridEntry",
    "GridReport",
    "JobOutcome",
    "JobSpec",
    "ResultCache",
    "code_salt",
    "default_cache_dir",
    "execute_spec",
    "expand_grid",
    "load_grid",
    "parse_seeds",
    "run_grid",
    "run_grid_fleet",
    "sweep_specs",
]
