"""Simulation checkpoints: stop a run at tick T, finish it later.

On-disk format (``repro-checkpoint/1``): one JSON header line —
schema/version, tick position, policy, the planned duration, and the
code salt the snapshot was taken under — followed by the pickled
machine.  Writes are atomic (tmp file + fsync + ``os.replace``), so a
checkpoint file is either the previous complete snapshot or the new
one, never a torn mix.

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
from typing import Callable

from repro.api import SimulationResult
from repro.config import SystemConfig
from repro.core.policy import EnergyAwareConfig
from repro.core.policyspec import PolicySpec
from repro.runner.cache import code_salt
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.system import CHECKPOINT_SCHEMA, CHECKPOINT_VERSION, System
from repro.workloads.generator import WorkloadSpec


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, corrupt, or not loadable here."""


def _expected_schema() -> str:
    return f"{CHECKPOINT_SCHEMA}/{CHECKPOINT_VERSION}"


def save_checkpoint(
    path: str | pathlib.Path,
    system: System,
    duration_s: float | None = None,
) -> pathlib.Path:
    """Write ``system.snapshot()`` to ``path`` atomically.

    ``duration_s`` records the run's planned total duration so
    :func:`resume_simulation` can finish the run without being told how
    long it was meant to be.
    """
    snapshot = system.snapshot()
    payload = snapshot.pop("payload")
    header = dict(snapshot)
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
    lazily by :meth:`System.restore`).

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
    if schema != _expected_schema():
        raise CheckpointError(
            f"{path} has checkpoint schema {schema!r}; this build reads "
            f"{_expected_schema()!r}"
        )
    snapshot = dict(header)
    snapshot["payload"] = raw[newline + 1:]
    if not snapshot["payload"]:
        raise CheckpointError(f"{path} is truncated (empty payload)")
    return snapshot


def load_checkpoint(
    path: str | pathlib.Path, allow_stale: bool = False
) -> tuple[System, dict]:
    """Rebuild the machine from a checkpoint file.

    Returns ``(system, snapshot_header)``.  A checkpoint written under
    a different code salt is refused unless ``allow_stale=True`` — the
    payload pickles internal classes, so loading it across code changes
    can fail in arbitrary ways or, worse, silently diverge.
    """
    snapshot = read_checkpoint(path)
    salt = snapshot.get("code_salt")
    if not allow_stale and salt is not None and salt != code_salt():
        raise CheckpointError(
            f"checkpoint {path} was written by a different code version "
            f"(salt {salt}, current {code_salt()}); re-run from scratch or "
            "pass allow_stale=True / --allow-stale to load it anyway"
        )
    try:
        system = System.restore(snapshot)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"cannot load checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return system, snapshot


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
    system, snapshot = load_checkpoint(path, allow_stale=allow_stale)
    if duration_s is None:
        duration_s = snapshot.get("duration_s")
        if duration_s is None:
            raise CheckpointError(
                f"checkpoint {path} does not record a planned duration; "
                "pass duration_s"
            )
    duration_s = float(duration_s)
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    clock = Clock.at(int(snapshot["tick_ms"]), int(snapshot["ticks"]))
    engine = Engine(clock, system.tracer)
    engine.register(system)
    engine.run_until_tick(clock.ticks_for_ms(duration_s * 1000.0))
    return SimulationResult(system=system, duration_s=duration_s)


def run_simulation_checkpointed(
    config: SystemConfig,
    workload: WorkloadSpec,
    checkpoint_path: str | pathlib.Path,
    policy: PolicySpec | str = "energy",
    policy_config: EnergyAwareConfig | None = None,
    duration_s: float = 300.0,
    checkpoint_every_s: float = 60.0,
    fast_path: bool = True,
    validate=False,
    obs=False,
    on_checkpoint: Callable[[pathlib.Path, int], None] | None = None,
    bus=None,
) -> SimulationResult:
    """:func:`repro.api.run_simulation` with periodic checkpoints.

    Every ``checkpoint_every_s`` of *simulated* time the current state
    overwrites ``checkpoint_path`` (atomically — a crash leaves the
    previous complete snapshot).  ``on_checkpoint(path, ticks)`` is
    called after each write, e.g. to count checkpoints for metrics;
    ``bus`` (an optional :class:`repro.obs.events.EventBus`) receives a
    ``checkpoint_written`` event per write.  Checkpointing only reads
    state, so the result is bit-identical to an unchecked run.
    """
    if checkpoint_every_s <= 0:
        raise ValueError(
            f"checkpoint interval must be positive, got {checkpoint_every_s}"
        )
    clock = Clock(config.tick_ms)
    system = System(
        config,
        workload,
        policy=policy,
        policy_config=policy_config,
        fast_path=fast_path,
        validate=validate,
        obs=obs,
    )
    engine = Engine(clock, system.tracer)
    engine.register(system)
    total_ticks = clock.ticks_for_ms(duration_s * 1000.0)
    every_ticks = clock.ticks_for_ms(checkpoint_every_s * 1000.0)
    while clock.ticks < total_ticks:
        engine.run_ticks(min(every_ticks, total_ticks - clock.ticks))
        save_checkpoint(checkpoint_path, system, duration_s=duration_s)
        if bus is not None:
            bus.emit("checkpoint_written", path=str(checkpoint_path),
                     ticks=clock.ticks)
        if on_checkpoint is not None:
            on_checkpoint(pathlib.Path(checkpoint_path), clock.ticks)
    return SimulationResult(system=system, duration_s=duration_s)
