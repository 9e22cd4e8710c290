"""Parameterized policy specifications and the policy registry.

The paper compares two schedulers, ``energy`` and ``baseline``; the
DVFS family (§2.3 — "the road not taken") needs more than a name: a
frequency ladder, hysteresis margins, a temperature target.
:class:`PolicySpec` carries ``name + params`` and is the one policy
type; every call site that takes a policy also takes a bare name:

* ``PolicySpec.coerce("energy")``,
  ``coerce({"name": "dvfs-reactive", "params": {...}})`` and
  ``coerce(spec)`` all work;
* a param-less spec compares and hashes equal to its name string, so
  dict keys, cached sweep results, and ``scenario.policy == "energy"``
  checks are unchanged;
* :func:`canonical_policy_value` renders a spec back to the exact JSON
  value old job specs used (the plain name) whenever no parameters are
  set, keeping content hashes — and therefore the result cache — stable
  across the API change.

Each registered :class:`PolicyDefinition` also records the policy's
*semantics*: which scheduling brain drives migrations, whether hot-CPU
migration is part of the lever set, and which temperature-control mode
the policy forces into the run's :class:`~repro.cpu.throttle.ThrottleConfig`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.cpu.dvfs import (
    DvfsConfig,
    ProactiveDvfsConfig,
    _default_levels,
)
from repro.cpu.throttle import ThrottleConfig


@dataclass(frozen=True, slots=True)
class PolicyDefinition:
    """Registry entry: a policy's name, semantics, and tunable params.

    Attributes
    ----------
    name:
        Registry key, lowercase.
    description:
        One-line catalog entry (``docs/policies.md`` mirrors these).
    scheduling:
        ``energy`` (the paper's energy-aware scheduler) or ``baseline``
        (plain load balancing).
    defaults:
        Every accepted parameter with its default value; a spec may only
        set keys listed here, and values equal to the default are
        normalized away.
    dvfs:
        ``None`` (no DVFS governor), ``reactive`` (power-limit
        staircase) or ``proactive`` (temperature-tracking).
    force_throttle_mode:
        Temperature-control mode the policy forces on (``hlt`` or
        ``dvfs``); ``None`` leaves the run's throttle config alone.
    hot_migration:
        Whether hot-CPU migration stays in the policy's lever set.  The
        pure DVFS variants turn it off so the governor is the *only*
        thermal response; the hybrid keeps both.
    """

    name: str
    description: str
    scheduling: str = "energy"
    defaults: Mapping[str, Any] = field(default_factory=dict)
    dvfs: str | None = None
    force_throttle_mode: str | None = None
    hot_migration: bool = True


POLICY_REGISTRY: tuple[PolicyDefinition, ...] = (
    PolicyDefinition(
        "energy",
        "The paper's energy-aware scheduler: energy balancing, hot-CPU "
        "migration, and energy-aware placement (§5).",
    ),
    PolicyDefinition(
        "baseline",
        "Plain load balancing without energy awareness (§6 comparison "
        "baseline).",
        scheduling="baseline",
    ),
    PolicyDefinition(
        "hlt-throttle",
        "Energy-aware scheduling with hlt duty-cycling forced on — the "
        "paper's own temperature control (§6.2).",
        force_throttle_mode="hlt",
    ),
    PolicyDefinition(
        "dvfs-reactive",
        "Throttle replacement: the hlt staircase swapped for a reactive "
        "frequency governor holding thermal power at the limit; hot-CPU "
        "migration disabled so DVFS is the only thermal lever.",
        defaults={
            "levels": _default_levels(),
            "step_up_margin_w": 2.0,
        },
        dvfs="reactive",
        force_throttle_mode="dvfs",
        hot_migration=False,
    ),
    PolicyDefinition(
        "dvfs-proactive",
        "Temperature-tracking DVFS: steers the §4.2 estimated die "
        "temperature toward (limit - margin), dropping the clock before "
        "the chip reaches throttling territory; hot-CPU migration "
        "disabled.",
        defaults={
            "levels": _default_levels(),
            "target_margin_c": 2.0,
            "step_up_margin_c": 1.0,
        },
        dvfs="proactive",
        force_throttle_mode="dvfs",
        hot_migration=False,
    ),
    PolicyDefinition(
        "dvfs-hybrid",
        "Migration + DVFS: the full energy-aware lever set (including "
        "hot-CPU migration) with the reactive frequency governor as the "
        "backstop instead of hlt.",
        defaults={
            "levels": _default_levels(),
            "step_up_margin_w": 2.0,
        },
        dvfs="reactive",
        force_throttle_mode="dvfs",
    ),
)

_BY_NAME: dict[str, PolicyDefinition] = {d.name: d for d in POLICY_REGISTRY}


def policy_names() -> tuple[str, ...]:
    """Registered policy names, in registry order."""
    return tuple(d.name for d in POLICY_REGISTRY)


def definition_by_name(name: str) -> PolicyDefinition:
    """Look up a registry entry; raises ValueError on unknown names."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(
            f"unknown policy {name!r} (known: {known})"
        ) from None


def _coerce_param(name: str, value: Any, default: Any) -> Any:
    """Normalize a parameter value to the type of its default."""
    if isinstance(default, tuple):
        if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
            raise ValueError(f"policy param {name!r} must be a sequence")
        return tuple(float(v) for v in value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"policy param {name!r} must be a number")
        return float(value)
    return value


@dataclass(frozen=True, eq=False)
class PolicySpec:
    """A scheduling/DVFS policy: registry name plus typed parameters.

    Parameters equal to the registry defaults are dropped at
    construction, so ``PolicySpec("energy")`` and any spelling of a
    default-parameterized policy normalize to the same value.  A spec
    without parameters compares and hashes equal to its bare name
    string, which keeps pre-PolicySpec dict keys and cached results
    working unchanged.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        definition = definition_by_name(self.name)
        normalized: dict[str, Any] = {}
        for key in sorted(dict(self.params)):
            if key not in definition.defaults:
                accepted = ", ".join(sorted(definition.defaults)) or "none"
                raise ValueError(
                    f"policy {self.name!r} accepts no param {key!r} "
                    f"(accepted: {accepted})"
                )
            value = _coerce_param(
                key, dict(self.params)[key], definition.defaults[key]
            )
            if value != definition.defaults[key]:
                normalized[key] = value
        object.__setattr__(self, "params", MappingProxyType(normalized))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolicySpec):
            return self.name == other.name and dict(self.params) == dict(
                other.params
            )
        if isinstance(other, str):
            return not self.params and self.name == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.params:
            return hash(self.name)
        return hash((self.name, tuple(sorted(self.params.items()))))

    def __repr__(self) -> str:
        if not self.params:
            return f"PolicySpec({self.name!r})"
        return f"PolicySpec({self.name!r}, params={dict(self.params)!r})"

    # MappingProxyType does not pickle; round-trip through a plain dict
    # (specs ride along in checkpointed System state).
    def __getstate__(self) -> dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    def __setstate__(self, state: dict[str, Any]) -> None:
        object.__setattr__(self, "name", state["name"])
        object.__setattr__(self, "params", MappingProxyType(dict(state["params"])))

    # -- registry accessors -----------------------------------------------

    @property
    def definition(self) -> PolicyDefinition:
        return definition_by_name(self.name)

    @property
    def scheduling(self) -> str:
        return self.definition.scheduling

    @property
    def dvfs_kind(self) -> str | None:
        return self.definition.dvfs

    @property
    def hot_migration(self) -> bool:
        return self.definition.hot_migration

    def param(self, key: str) -> Any:
        """A parameter's effective value (explicit or registry default)."""
        if key in self.params:
            return self.params[key]
        return self.definition.defaults[key]

    def effective_params(self) -> dict[str, Any]:
        """All parameters with explicit values merged over defaults."""
        merged = dict(self.definition.defaults)
        merged.update(self.params)
        return merged

    # -- run wiring -------------------------------------------------------

    def throttle_override(
        self, throttle: ThrottleConfig
    ) -> ThrottleConfig | None:
        """The throttle config this policy forces, or None to keep it.

        Scope and hysteresis of the run's existing config are preserved;
        only ``enabled`` and ``mode`` are forced.
        """
        mode = self.definition.force_throttle_mode
        if mode is None:
            return None
        if throttle.enabled and throttle.mode == mode:
            return None
        return dataclasses.replace(throttle, enabled=True, mode=mode)

    def dvfs_config(self) -> DvfsConfig | ProactiveDvfsConfig | None:
        """The governor config this policy requests (None = default)."""
        kind = self.definition.dvfs
        if kind is None:
            return None
        if kind == "proactive":
            return ProactiveDvfsConfig(
                levels=tuple(self.param("levels")),
                target_margin_c=self.param("target_margin_c"),
                step_up_margin_c=self.param("step_up_margin_c"),
            )
        return DvfsConfig(
            levels=tuple(self.param("levels")),
            step_up_margin_w=self.param("step_up_margin_w"),
        )

    # -- coercion ---------------------------------------------------------

    @classmethod
    def coerce(cls, value: "PolicySpec | str | Mapping[str, Any]") -> "PolicySpec":
        """Interpret any accepted policy spelling as a PolicySpec.

        Accepts a PolicySpec (returned as-is), a bare name string
        (case-insensitive), or a mapping of the shape
        ``{"name": ..., "params": {...}}``.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value.lower())
        if isinstance(value, Mapping):
            unknown = set(value) - {"name", "params"}
            if unknown:
                raise ValueError(
                    "policy mappings accept only 'name' and 'params' keys, "
                    f"got {sorted(unknown)}"
                )
            if "name" not in value:
                raise ValueError("policy mapping needs a 'name' key")
            return cls(str(value["name"]).lower(), value.get("params") or {})
        raise ValueError(f"cannot interpret {value!r} as a policy")


def canonical_policy_value(value: "PolicySpec | str | Mapping[str, Any]"):
    """Render a policy as the canonical JSON-safe scenario value.

    Param-less policies come back as the plain name string — byte-for-
    byte what pre-PolicySpec job specs stored, so existing content
    hashes (and cached sweep results) are unchanged.  Parameterized
    policies come back as ``{"name": ..., "params": {...}}`` with
    tuples rendered as lists and keys sorted.
    """
    spec = PolicySpec.coerce(value)
    if not spec.params:
        return spec.name
    params = {
        key: list(val) if isinstance(val, tuple) else val
        for key, val in sorted(spec.params.items())
    }
    return {"name": spec.name, "params": params}
