"""Crash-safe execution: checkpoint/resume, sweep journals, supervision.

The simulator is deterministic, so every long computation here is
restartable from recorded state instead of from scratch:

* :mod:`repro.resilience.checkpoint` — whole-machine simulation
  checkpoints (``snapshot(system)``/``restore(snapshot)``) with a
  versioned, atomically-written on-disk format; a run checkpointed at
  tick T and resumed is bit-identical to the uninterrupted run.
* :mod:`repro.resilience.journal` — append-only, fsynced journal of
  sweep job starts/finishes/failures under ``.repro_cache/``; a killed
  sweep resumes with ``sweep --resume <journal>`` without recomputing
  journaled-complete jobs.
* :mod:`repro.resilience.supervisor` — the supervised worker pool
  behind :func:`repro.runner.run_grid`: watchdog timeouts, pool rebuild
  after worker death, poison-job quarantine, deterministic capped
  exponential backoff, and graceful SIGINT/SIGTERM drain.

See ``docs/resilience.md`` for the operations guide.
"""

from repro.resilience.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint,
    resume_simulation,
    run_simulation_checkpointed,
    save_checkpoint,
)
from repro.resilience.journal import (
    JOURNAL_SCHEMA,
    JournalReplay,
    SweepJournal,
    replay_journal,
)
from repro.resilience.supervisor import (
    ExecutorStats,
    SupervisorConfig,
    backoff_delay_s,
)

__all__ = [
    "CheckpointError",
    "ExecutorStats",
    "JOURNAL_SCHEMA",
    "JournalReplay",
    "SupervisorConfig",
    "SweepJournal",
    "backoff_delay_s",
    "load_checkpoint",
    "read_checkpoint",
    "replay_journal",
    "resume_simulation",
    "run_simulation_checkpointed",
    "save_checkpoint",
]
