"""Batch grid files: a JSON description of many sweeps at once.

``python -m repro batch grid.json`` expands each entry of the file into
job specs (the cartesian product of its durations × seeds), runs them
all through one :func:`repro.runner.executor.run_grid` call — so the
whole batch shares the worker pool and the cache — and aggregates each
entry's scalars separately.

Grid file shape (a bare list is accepted too)::

    {
      "jobs": [
        {"experiment": "fig9", "seeds": "1..4", "duration_s": 60},
        {"experiment": "fig8", "seeds": [1, 2], "durations": [60, 120]},
        {"scenario": {...}, "seeds": "1..3",
         "overrides": {"temp_limit_c": 40.0}, "label": "hot-limit"}
      ]
    }

Each entry names an ``experiment`` or embeds a ``scenario`` object,
plus ``seeds`` (int, ``"LO..HI"``, ``"a,b,c"``, or a list; optional),
``duration_s`` or a ``durations`` list (optional), ``overrides``
(scenario entries only), and an optional display ``label``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.runner.spec import JobSpec, parse_seeds
from repro.scenario import converted, reject_unknown_keys


@dataclass(frozen=True)
class GridEntry:
    """One grid-file entry, expanded to its spec list."""

    label: str
    specs: tuple[JobSpec, ...]


def _float_list(values: list) -> list[float]:
    if not isinstance(values, list):
        raise TypeError("not a list")
    return [float(v) for v in values]


def _entry_durations(entry: Mapping[str, Any]) -> list[float | None]:
    if "durations" in entry and "duration_s" in entry:
        raise ValueError("give either 'duration_s' or 'durations', not both")
    if "durations" in entry:
        durations = converted(entry, "durations", _float_list)
        if not durations:
            raise ValueError("'durations' must not be empty")
        return durations
    if "duration_s" in entry:
        return [converted(entry, "duration_s", float)]
    return [None]


def expand_entry(entry: Mapping[str, Any]) -> GridEntry:
    """Expand one grid entry into its cartesian spec list."""
    if not isinstance(entry, Mapping):
        raise ValueError(f"grid entries must be JSON objects, not {entry!r}")
    reject_unknown_keys(entry, "grid-entry", (
        "experiment", "scenario", "seeds", "duration_s", "durations",
        "overrides", "label"))
    for key in ("scenario", "overrides"):
        if key in entry and not isinstance(entry[key], Mapping):
            raise ValueError(
                f"{key!r} must be a JSON object, not {entry[key]!r}"
            )
    seeds = (
        converted(entry, "seeds", parse_seeds) if "seeds" in entry
        else (None,)
    )
    specs = tuple(
        JobSpec(
            experiment=entry.get("experiment"),
            scenario=entry.get("scenario"),
            duration_s=duration,
            seed=seed,
            overrides=entry.get("overrides", {}),
        )
        for duration in _entry_durations(entry)
        for seed in seeds
    )
    default_label = entry.get("experiment") or entry.get("scenario", {}).get(
        "name", "scenario"
    )
    return GridEntry(label=str(entry.get("label", default_label)), specs=specs)


def expand_grid(data: Any) -> list[GridEntry]:
    """Expand a parsed grid file into its entries."""
    if isinstance(data, Mapping):
        reject_unknown_keys(data, "grid", ("jobs",))
        data = data.get("jobs")
    if not isinstance(data, list) or not data:
        raise ValueError(
            "grid file must be a non-empty list of job entries "
            "(or {'jobs': [...]})"
        )
    return [expand_entry(entry) for entry in data]


def load_grid(path: str | pathlib.Path) -> list[GridEntry]:
    """Parse and expand a grid JSON file."""
    return expand_grid(json.loads(pathlib.Path(path).read_text()))
