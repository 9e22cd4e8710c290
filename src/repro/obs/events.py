"""Structured run events: the sweep-scale telemetry bus.

``repro.obs`` (the audit log, metrics registries, traces) explains one
*finished* simulation.  This module is the live counterpart for the
heavy multi-job paths — supervised-pool sweeps, fleet-engine batches,
tournaments — which emit :class:`RunEvent` records while they execute:
job lifecycle (started / finished / failed / quarantined / cache hit),
worker incidents (death / pool rebuild / retry backoff), and fleet
chunk progress.

Events fan out through an :class:`EventBus` to pluggable sinks:

* :class:`JsonlSink` — one sorted-key JSON line per event, flushed and
  fsynced with the same discipline as the sweep journal, so the stream
  is current even if the driver dies mid-sweep;
* :class:`RingBufferSink` — a bounded in-memory window of the latest
  events (what the live ``/events`` endpoint serves);
* any callable taking a :class:`RunEvent` (how the live metrics
  aggregator subscribes).

The bus preserves the repo's bit-identity contract: no bus is created
unless telemetry is requested, hot paths guard every emission behind a
``bus is not None`` check, and a sink that raises is detached from the
event — counted in ``EventBus.sink_errors`` — rather than allowed to
kill the sweep.  Event payloads carry wall-clock timestamps and are
therefore never part of any deterministic artifact.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: Event record identity; bump on incompatible layout changes.
RUN_EVENT_SCHEMA = "repro-run-event/1"

#: Every event kind the bus can carry.  ``tools/check_docs.py``
#: requires each of these to be documented in docs/live_telemetry.md.
EVENT_KINDS = (
    "grid_started",
    "grid_finished",
    "job_started",
    "job_finished",
    "job_failed",
    "job_quarantined",
    "job_cache_hit",
    "worker_death",
    "pool_rebuild",
    "worker_backoff",
    "fleet_chunk_started",
    "fleet_chunk_finished",
    "fleet_tick_progress",
)

_KIND_SET = frozenset(EVENT_KINDS)


@dataclass(frozen=True)
class RunEvent:
    """One telemetry event.

    ``seq`` is a per-bus monotonic sequence number, ``t`` the wall-clock
    emission time (``time.time()``), ``data`` the kind-specific payload
    of JSON-safe scalars.
    """

    kind: str
    seq: int
    t: float
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": RUN_EVENT_SCHEMA,
            "kind": self.kind,
            "seq": self.seq,
            "t": self.t,
            "data": dict(self.data),
        }

    def to_json(self) -> str:
        """Sorted-key canonical JSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


class EventBus:
    """Fan-out point for :class:`RunEvent` records.

    Thread-safe: pool callbacks and the emitting driver may run on
    different threads.  Sinks are callables taking one event; a sink
    that raises is skipped for that event and the failure counted in
    ``sink_errors`` — telemetry must never take down the work it
    observes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: list[Callable[[RunEvent], None]] = []
        self._seq = 0
        self.sink_errors = 0

    def subscribe(self, sink: Callable[[RunEvent], None]) -> None:
        with self._lock:
            self._sinks.append(sink)

    def unsubscribe(self, sink: Callable[[RunEvent], None]) -> None:
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    def emit(self, kind: str, **data) -> RunEvent:
        if kind not in _KIND_SET:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of "
                f"{', '.join(EVENT_KINDS)}"
            )
        with self._lock:
            self._seq += 1
            event = RunEvent(kind=kind, seq=self._seq, t=time.time(),
                             data=data)
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink(event)
            except Exception:
                with self._lock:
                    self.sink_errors += 1
        return event

    def __len__(self) -> int:
        with self._lock:
            return len(self._sinks)


class JsonlSink:
    """Durable JSONL event stream.

    One sorted-key JSON line per event; every append is flushed and
    fsynced before returning (the sweep journal's discipline), so a
    SIGKILL leaves at most one torn final line.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")
        self._lock = threading.Lock()

    def __call__(self, event: RunEvent) -> None:
        line = (event.to_json() + "\n").encode()
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(path: str | os.PathLike) -> list[RunEvent]:
    """Replay a :class:`JsonlSink` file, tolerant of a torn tail.

    A missing file yields an empty list, like journal replay.
    """
    events: list[RunEvent] = []
    try:
        raw = pathlib.Path(path).read_bytes()
    except OSError:
        return events
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail
        if not isinstance(record, dict) or "kind" not in record:
            continue
        events.append(
            RunEvent(
                kind=record.get("kind", ""),
                seq=int(record.get("seq", 0)),
                t=float(record.get("t", 0.0)),
                data=dict(record.get("data") or {}),
            )
        )
    return events


class RingBufferSink:
    """Bounded in-memory window over the newest events.

    Older events beyond ``capacity`` are dropped (counted in
    ``dropped``); :meth:`events` returns a snapshot of the window.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[RunEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def __call__(self, event: RunEvent) -> None:
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)

    def events(self) -> list[RunEvent]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def count_by_kind(events: Iterable[RunEvent]) -> dict[str, int]:
    """Event counts keyed by kind (sorted keys, for stable reports)."""
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return dict(sorted(counts.items()))
