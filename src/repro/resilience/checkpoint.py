"""Simulation checkpoints: stop a run at tick T, finish it later.

This module is the one home of the checkpoint format: :func:`snapshot`
and :func:`restore` convert a :class:`~repro.system.System` to and from
the in-memory form, and the file functions below read and write it.
On-disk format (``repro-checkpoint/1``): one JSON header line —
schema/version, tick position, policy, the planned duration, and the
code salt the snapshot was taken under — followed by the pickled
machine.  The schema is checked once, by :func:`read_checkpoint`.
Writes are atomic (tmp file + fsync + ``os.replace``), so a checkpoint
file is either the previous complete snapshot or the new one, never a
torn mix.

Version policy: the schema version bumps on any incompatible change to
the header layout or payload semantics, and loaders reject versions
they do not read.  Because the payload is a pickle of internal classes,
a checkpoint is additionally tied to the exact code tree that wrote it:
:func:`load_checkpoint` refuses a salt mismatch by default rather than
risk unpickling across refactors (``allow_stale=True`` overrides for
same-layout edits such as comment changes).

Determinism contract: resuming runs the remaining ticks on a clock
restored to the snapshot tick, so tick-phase arithmetic, RNG draws, and
trace sampling line up exactly — ``scalar_summary()`` and the event
trace of a checkpointed-and-resumed run are byte-identical to the
uninterrupted run on both tick paths (asserted per pinned scenario in
``tests/test_resilience_checkpoint.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
from typing import Callable

from repro.api import RunOptions, SimulationResult
from repro.runner.cache import code_salt
from repro.scenario import Scenario
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.system import System

#: Checkpoint format identity.  The schema string names the container
#: layout (header fields + pickled machine payload); the version bumps
#: whenever either changes incompatibly.  Loaders reject anything else.
CHECKPOINT_SCHEMA = "repro-checkpoint"
CHECKPOINT_VERSION = 1
_SCHEMA = f"{CHECKPOINT_SCHEMA}/{CHECKPOINT_VERSION}"


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, corrupt, or not loadable here."""


def snapshot(system: System) -> dict:
    """A versioned, self-contained checkpoint of the machine.

    The returned dict is the in-memory checkpoint format: identifying
    header fields plus the pickled machine as the ``payload``.
    :func:`save_checkpoint` writes it to disk atomically and
    :func:`restore` rebuilds the system.  Snapshotting reads state only
    — taking one mid-run does not perturb the run.
    """
    return {
        "schema": _SCHEMA,
        "version": CHECKPOINT_VERSION,
        "tick_ms": system.config.tick_ms,
        "now_ms": system._now_ms,
        "ticks": system._now_ms // system.config.tick_ms,
        "policy": system.policy_name,
        "fast_path": system.fast_path,
        "payload": pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL),
    }


def restore(snapshot: dict) -> System:
    """Rebuild a machine from a :func:`snapshot` dict (its schema is
    checked where a file is read, by :func:`read_checkpoint`)."""
    system = pickle.loads(snapshot["payload"])
    if not isinstance(system, System):
        raise CheckpointError(
            f"checkpoint payload is {type(system).__name__}, not a System"
        )
    return system


def save_checkpoint(
    path: str | pathlib.Path,
    system: System,
    duration_s: float | None = None,
) -> pathlib.Path:
    """Write :func:`snapshot` of ``system`` to ``path`` atomically.

    ``duration_s`` records the run's planned total duration so
    :func:`resume_simulation` can finish the run without being told how
    long it was meant to be.
    """
    header = snapshot(system)
    payload = header.pop("payload")
    header["code_salt"] = code_salt()
    if duration_s is not None:
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        header["duration_s"] = float(duration_s)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_checkpoint(path: str | pathlib.Path) -> dict:
    """Parse a checkpoint file into a snapshot dict (payload unpickled
    lazily by :func:`restore`).

    Raises :class:`CheckpointError` on missing files, corrupt or
    truncated headers, unsupported schema versions, and empty payloads.
    """
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path} is not a checkpoint (no header line)")
    try:
        header = json.loads(raw[:newline])
    except ValueError as exc:
        raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path} has a corrupt header: not an object")
    schema = header.get("schema")
    if schema != _SCHEMA:
        raise CheckpointError(
            f"{path} has checkpoint schema {schema!r}; this build reads "
            f"{_SCHEMA!r}"
        )
    payload = raw[newline + 1:]
    if not payload:
        raise CheckpointError(f"{path} is truncated (empty payload)")
    return dict(header, payload=payload)


def load_checkpoint(
    path: str | pathlib.Path, allow_stale: bool = False
) -> tuple[System, dict]:
    """Rebuild the machine from a checkpoint file.

    Returns ``(system, snapshot_header)``.  A checkpoint written under
    a different code salt is refused unless ``allow_stale=True`` — the
    payload pickles internal classes, so loading it across code changes
    can fail in arbitrary ways or, worse, silently diverge.
    """
    header = read_checkpoint(path)
    salt = header.get("code_salt")
    if not allow_stale and salt is not None and salt != code_salt():
        raise CheckpointError(
            f"checkpoint {path} was written by a different code version "
            f"(salt {salt}, current {code_salt()}); re-run from scratch or "
            "pass allow_stale=True / --allow-stale to load it anyway"
        )
    try:
        system = restore(header)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"cannot load checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return system, header


def resume_simulation(
    path: str | pathlib.Path,
    duration_s: float | None = None,
    allow_stale: bool = False,
) -> SimulationResult:
    """Finish a checkpointed run and return its result.

    ``duration_s`` is the run's *total* planned duration; omitted, it
    comes from the checkpoint header (:func:`save_checkpoint`'s
    ``duration_s``).  A checkpoint taken at or past the target duration
    simply yields its result without running further ticks.
    """
    system, header = load_checkpoint(path, allow_stale=allow_stale)
    if duration_s is None:
        duration_s = header.get("duration_s")
        if duration_s is None:
            raise CheckpointError(
                f"checkpoint {path} does not record a planned duration; "
                "pass duration_s"
            )
    duration_s = float(duration_s)
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    clock = Clock.at(int(header["tick_ms"]), int(header["ticks"]))
    engine = Engine(clock, system.tracer)
    engine.register(system)
    engine.run_until_tick(clock.ticks_for_ms(duration_s * 1000.0))
    return SimulationResult(system=system, duration_s=duration_s)


def run_simulation_checkpointed(
    scenario: Scenario,
    checkpoint_path: str | pathlib.Path,
    *,
    options: RunOptions = RunOptions(),
    checkpoint_every_s: float = 60.0,
    on_checkpoint: Callable[[pathlib.Path, int], None] | None = None,
) -> SimulationResult:
    """:meth:`repro.scenario.Scenario.run` with periodic checkpoints.

    Every ``checkpoint_every_s`` of *simulated* time the current state
    overwrites ``checkpoint_path`` (atomically — a crash leaves the
    previous complete snapshot), and ``on_checkpoint(path, ticks)`` is
    called after each write.  Checkpointing only reads state, so the
    result is bit-identical to ``scenario.run(options)``.
    """
    if checkpoint_every_s <= 0:
        raise ValueError(
            f"checkpoint interval must be positive, got {checkpoint_every_s}"
        )
    clock = Clock(scenario.config.tick_ms)
    system = System(
        scenario.config,
        scenario.workload,
        policy=scenario.policy,
        fast_path=options.fast_path,
        validate=options.validate,
        obs=options.obs,
    )
    engine = Engine(clock, system.tracer)
    engine.register(system)
    duration_s = scenario.duration_s
    total_ticks = clock.ticks_for_ms(duration_s * 1000.0)
    every_ticks = clock.ticks_for_ms(checkpoint_every_s * 1000.0)
    while clock.ticks < total_ticks:
        engine.run_ticks(min(every_ticks, total_ticks - clock.ticks))
        save_checkpoint(checkpoint_path, system, duration_s=duration_s)
        if on_checkpoint is not None:
            on_checkpoint(pathlib.Path(checkpoint_path), clock.ticks)
    return SimulationResult(system=system, duration_s=duration_s)
