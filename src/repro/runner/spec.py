"""Job specs: one picklable description of one simulation run.

A :class:`JobSpec` names either a registered experiment or an inline
scenario object (the same JSON shape ``repro.scenario`` parses), plus
the parameters that vary across a sweep: duration, seed, and — for
scenarios — config overrides merged into the scenario dict.  Specs are
plain data, so they cross process boundaries cheaply and hash stably:
:meth:`JobSpec.content_hash` is a SHA-256 over the canonical JSON form,
which keys the on-disk result cache.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.policyspec import canonical_policy_value
from repro.scenario import reject_unknown_keys


def _canonical_scenario_keys(data: dict[str, Any]) -> dict[str, Any]:
    """Normalize policy spellings so equivalent specs hash identically.

    ``PolicySpec("energy")``, ``Policy.ENERGY``, and ``"energy"`` all
    render as the plain name (byte-for-byte the pre-PolicySpec form, so
    existing cache entries stay valid); parameterized specs render as
    the sorted ``{"name", "params"}`` mapping.  Invalid values are left
    untouched — they fail at execution time with the parser's error,
    exactly as before.
    """
    if "policy" in data:
        try:
            data["policy"] = canonical_policy_value(data["policy"])
        except (ValueError, TypeError):
            pass
    return data


@dataclass(frozen=True)
class JobSpec:
    """One run of one experiment or scenario.

    Attributes
    ----------
    experiment:
        Name of a registry experiment (``repro.experiments.REGISTRY``).
        Mutually exclusive with ``scenario``.
    scenario:
        An inline scenario object (see :mod:`repro.scenario`), run via
        ``parse_scenario`` after ``overrides``/``duration_s``/``seed``
        are merged in.
    duration_s:
        Simulated duration; ``None`` keeps the experiment's committed
        duration (or the scenario's own ``duration_s``).
    seed:
        Root seed; ``None`` keeps the committed default.
    overrides:
        Top-level scenario keys merged over ``scenario`` (for example
        ``{"temp_limit_c": 40.0}``).  Only valid with ``scenario`` —
        experiment entrypoints take no config parameters.
    """

    experiment: str | None = None
    scenario: Mapping[str, Any] | None = None
    duration_s: float | None = None
    seed: int | None = None
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.experiment is None) == (self.scenario is None):
            raise ValueError("specify exactly one of experiment / scenario")
        if self.experiment is not None and self.overrides:
            raise ValueError(
                "config overrides only apply to scenario specs; experiment "
                "entrypoints are parameterised by duration and seed alone"
            )
        if self.duration_s is not None and not 0 < self.duration_s < math.inf:
            raise ValueError(
                f"duration must be positive and finite, got {self.duration_s}"
            )

    # -- identity --------------------------------------------------------------
    def to_dict(self) -> dict:
        """The canonical plain-data form (JSON round-trippable)."""
        out: dict[str, Any] = {}
        if self.experiment is not None:
            out["experiment"] = self.experiment
        if self.scenario is not None:
            out["scenario"] = _canonical_scenario_keys(dict(self.scenario))
        if self.duration_s is not None:
            out["duration_s"] = float(self.duration_s)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        if self.overrides:
            out["overrides"] = _canonical_scenario_keys(dict(self.overrides))
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        reject_unknown_keys(data, "job-spec", (
            "experiment", "scenario", "duration_s", "seed", "overrides"))
        return cls(
            experiment=data.get("experiment"),
            scenario=data.get("scenario"),
            duration_s=data.get("duration_s"),
            seed=data.get("seed"),
            overrides=data.get("overrides", {}),
        )

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON form — the cache key."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def scenario_data(self) -> dict[str, Any]:
        """The scenario object with overrides, duration and seed merged in.

        This is the JSON shape ``parse_scenario`` reads on every engine,
        so a fleet member and a pool worker parse the same dict.
        """
        data = dict(self.scenario)
        data.update(self.overrides)
        if self.duration_s is not None:
            data["duration_s"] = self.duration_s
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @property
    def label(self) -> str:
        """A short human-readable tag for progress lines."""
        name = self.experiment or self.scenario.get("name", "scenario")
        parts = []
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.duration_s is not None:
            parts.append(f"duration={self.duration_s:g}s")
        return f"{name}[{','.join(parts)}]" if parts else str(name)


def parse_seeds(spec: int | str | Sequence[int]) -> tuple[int, ...]:
    """Parse a seed set: ``7``, ``"7"``, ``"1..10"``, ``"1,3,5"``, ``[1, 2]``.

    Ranges are inclusive on both ends, matching the CLI's ``--seeds
    1..10`` meaning seeds 1 through 10.
    """
    if isinstance(spec, int):
        return (spec,)
    if isinstance(spec, str):
        text = spec.strip()
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ValueError(f"bad seed range {spec!r}; expected 'LO..HI'")
            if hi < lo:
                raise ValueError(f"empty seed range {spec!r}")
            return tuple(range(lo, hi + 1))
        try:
            return tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(
                f"bad seed spec {spec!r}; expected an integer, 'LO..HI', "
                "or a comma-separated list"
            )
    seeds = tuple(int(s) for s in spec)
    if not seeds:
        raise ValueError("seed set must not be empty")
    return seeds


def sweep_specs(
    experiment: str,
    seeds: int | str | Sequence[int],
    duration_s: float | None = None,
) -> list[JobSpec]:
    """The spec list for one experiment replicated over a seed set."""
    return [
        JobSpec(experiment=experiment, duration_s=duration_s, seed=seed)
        for seed in parse_seeds(seeds)
    ]
