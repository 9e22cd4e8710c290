"""Sweep journals: an append-only record of grid progress.

``run_grid`` appends one JSON line per event to a journal file under
``.repro_cache/``: a ``meta`` record describing the grid (command, code
salt, and the full spec list, so the journal alone rebuilds the sweep),
then ``start``/``finish``/``fail`` records keyed by spec content hash.
Every append is flushed and fsynced before the job proceeds, so the
journal is current even when the driver is SIGKILLed; a kill mid-append
leaves at most one torn final line, which replay skips.

``finish`` records carry the job's result inline.  Resuming therefore
needs zero recomputation of journaled-complete jobs even when the
result cache is disabled or has been cleared: ``sweep --resume
<journal>`` loads completed results straight from the journal, re-queues
jobs that were in flight (a ``start`` without a matching ``finish``),
re-runs failures, and skips quarantined poison jobs.

Salt semantics mirror the result cache: records are valid only under
the code salt of the most recent ``meta`` record, and opening a journal
with a different salt appends a fresh ``meta`` — prior completions are
then treated as stale and recomputed, exactly like cache misses.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.runner.cache import code_salt
from repro.runner.spec import JobSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.executor import JobOutcome

#: Journal format identity; bump on incompatible record-layout changes.
JOURNAL_SCHEMA = "repro-sweep-journal/1"


@dataclass
class JournalReplay:
    """What a journal says happened, tolerant of a torn tail.

    ``completed``/``failed``/``quarantined`` map spec content hashes to
    their latest record under the journal's current salt; ``in_flight``
    holds hashes with a ``start`` but no terminal record — jobs the
    dead driver had running, to be re-queued.  ``torn_lines`` counts
    undecodable lines (a SIGKILL mid-append leaves at most one).
    """

    meta: dict | None = None
    salt: str | None = None
    completed: dict[str, dict] = field(default_factory=dict)
    failed: dict[str, dict] = field(default_factory=dict)
    quarantined: dict[str, dict] = field(default_factory=dict)
    in_flight: set[str] = field(default_factory=set)
    records: int = 0
    torn_lines: int = 0

    def specs(self) -> list[JobSpec]:
        """The grid recorded by the meta record, rebuilt as specs."""
        if self.meta is None or not self.meta.get("specs"):
            raise ValueError(
                "journal has no meta record with a spec list; it predates "
                "the grid description or is torn at the very first line"
            )
        return [JobSpec.from_dict(d) for d in self.meta["specs"]]

    def result_of(self, spec_hash: str) -> dict | None:
        record = self.completed.get(spec_hash)
        return record.get("result") if record is not None else None

    def _apply(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "meta":
            if self.meta is not None and record.get("salt") != self.salt:
                # New code version: journaled results are stale, exactly
                # like salted cache entries.
                self.completed.clear()
                self.failed.clear()
                self.quarantined.clear()
                self.in_flight.clear()
            self.meta = record
            self.salt = record.get("salt")
            return
        spec_hash = record.get("hash")
        if not isinstance(spec_hash, str):
            return
        if kind == "start":
            self.in_flight.add(spec_hash)
        elif kind == "finish":
            self.in_flight.discard(spec_hash)
            self.failed.pop(spec_hash, None)
            self.completed[spec_hash] = record
        elif kind == "fail":
            self.in_flight.discard(spec_hash)
            self.failed[spec_hash] = record
            if record.get("quarantined"):
                self.quarantined[spec_hash] = record


def replay_journal(path: str | pathlib.Path) -> JournalReplay:
    """Replay a journal file; a missing file yields an empty replay."""
    replay = JournalReplay()
    try:
        raw = pathlib.Path(path).read_bytes()
    except OSError:
        return replay
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            replay.torn_lines += 1
            continue
        if not isinstance(record, dict):
            replay.torn_lines += 1
            continue
        replay.records += 1
        replay._apply(record)
    return replay


class SweepJournal:
    """Append-only journal of one sweep's job lifecycle.

    Opening an existing journal replays it first: completed results are
    then served from :meth:`completed_result`, and in-flight or failed
    jobs are left for the executor to re-run.  A caller that has just
    replayed the file (``--resume`` reads its spec list first) passes
    that ``replay`` instead, so the file is read once.  Appends are
    atomic at the record level (single ``write`` of one line) and
    durable (flush + fsync) so the journal survives a SIGKILL of the
    driver.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        specs: Sequence[JobSpec] = (),
        command: str = "sweep",
        command_args: dict | None = None,
        salt: str | None = None,
        replay: JournalReplay | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.salt = salt if salt is not None else code_salt()
        self.replay = replay if replay is not None else replay_journal(self.path)
        if self.replay.meta is not None and self.replay.salt != self.salt:
            # Same clearing rule as JournalReplay._apply: results from
            # another code version do not count as complete.
            self.replay.completed.clear()
            self.replay.failed.clear()
            self.replay.quarantined.clear()
            self.replay.in_flight.clear()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")
        specs = list(specs)
        spec_dicts = [s.to_dict() for s in specs]
        meta = self.replay.meta
        if (
            meta is None
            or meta.get("salt") != self.salt
            or (spec_dicts and meta.get("specs") != spec_dicts)
        ):
            self._append(
                {
                    "kind": "meta",
                    "schema": JOURNAL_SCHEMA,
                    "salt": self.salt,
                    "command": command,
                    "args": command_args or {},
                    "specs": spec_dicts,
                }
            )
            self.replay.meta = None  # force the fresh meta to apply cleanly
            self.replay._apply(
                {
                    "kind": "meta",
                    "schema": JOURNAL_SCHEMA,
                    "salt": self.salt,
                    "specs": spec_dicts,
                }
            )

    # -- queries used before execution ------------------------------------
    def completed_result(self, spec: JobSpec) -> dict | None:
        """The journaled result for ``spec``, or ``None``."""
        return self.replay.result_of(spec.content_hash())

    def is_quarantined(self, spec: JobSpec) -> bool:
        return spec.content_hash() in self.replay.quarantined

    def quarantine_error(self, spec: JobSpec) -> str | None:
        record = self.replay.quarantined.get(spec.content_hash())
        return record.get("error") if record is not None else None

    # -- appends during execution ------------------------------------------
    def record_start(self, index: int, spec: JobSpec) -> None:
        self._append(
            {"kind": "start", "index": index, "hash": spec.content_hash()}
        )

    def record_outcome(self, index: int, outcome: "JobOutcome") -> None:
        spec_hash = outcome.spec.content_hash()
        if outcome.ok:
            record = {
                "kind": "finish",
                "index": index,
                "hash": spec_hash,
                "cached": outcome.cached,
                "elapsed_s": outcome.elapsed_s,
                "result": outcome.result,
            }
        else:
            record = {
                "kind": "fail",
                "index": index,
                "hash": spec_hash,
                "error": outcome.error,
                "quarantined": outcome.quarantined,
            }
        self._append(record)
        self.replay._apply(record)

    def _append(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._fh.write(line.encode())
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SweepJournal({self.path}, completed={len(self.replay.completed)}, "
            f"in_flight={len(self.replay.in_flight)})"
        )
