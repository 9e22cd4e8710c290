"""Typed event records for tracing scheduler activity.

These are *simulation trace* events (migrations, throttling transitions,
task lifecycle), not to be confused with the hardware *event monitoring
counter* events in :mod:`repro.cpu.events`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Version tag for serialised event records; bump on layout changes.
EVENT_SCHEMA = 1


class EventKind(enum.Enum):
    """Kinds of trace events emitted by the simulator."""

    TASK_START = "task_start"
    TASK_EXIT = "task_exit"
    TASK_BLOCK = "task_block"
    TASK_WAKE = "task_wake"
    MIGRATION = "migration"
    THROTTLE_ON = "throttle_on"
    THROTTLE_OFF = "throttle_off"


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One trace event.

    Attributes
    ----------
    time_ms:
        Simulated time the event occurred.
    kind:
        The event class.
    cpu:
        Logical CPU id the event pertains to (destination CPU for
        migrations), or ``-1`` when not CPU-specific.
    pid:
        Task id, or ``-1`` when not task-specific.
    detail:
        Free-form metadata (e.g. source CPU and reason for migrations).
    """

    time_ms: int
    kind: EventKind
    cpu: int = -1
    pid: int = -1
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form.

        ``detail`` is key-sorted (the ``CounterSet.as_dict`` convention)
        so serialised traces are stable regardless of how the detail
        dict was built.
        """
        return {
            "schema": EVENT_SCHEMA,
            "time_ms": self.time_ms,
            "kind": self.kind.value,
            "cpu": self.cpu,
            "pid": self.pid,
            "detail": {k: self.detail[k] for k in sorted(self.detail)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventRecord":
        """Rebuild a record serialised by :meth:`to_dict`.

        Rejects unknown schema versions instead of guessing at field
        meanings; a record without a ``schema`` key is assumed current.
        """
        schema = data.get("schema", EVENT_SCHEMA)
        if schema != EVENT_SCHEMA:
            raise ValueError(
                f"unsupported event schema {schema!r}; "
                f"this build reads schema {EVENT_SCHEMA}"
            )
        return cls(
            time_ms=int(data["time_ms"]),
            kind=EventKind(data["kind"]),
            cpu=int(data.get("cpu", -1)),
            pid=int(data.get("pid", -1)),
            detail=dict(data.get("detail", {})),
        )
