"""Scenario registry and the generator DSL core.

A *scenario family* is a named, parameterized generator of runnable
scenarios: given a declarative :class:`GeneratorSpec` — family name,
parameter overrides, and a seed — it produces the exact JSON shape
:func:`repro.scenario.parse_scenario` accepts.  Everything downstream
(``sweep --family``, grid files, the tournament, the pinned
validate matrix) enumerates *specs*, not hand-written task lists, so
arrival-process and adversarial workloads flow through the same cache,
journal, and oracle machinery as the static Table-2 mixes.

Determinism contract (tested property-style and across processes):

* generation draws randomness only from :meth:`GeneratorSpec.rng`, a
  Mersenne stream seeded from the SHA-256 of the spec's canonical JSON
  — the same spec + seed reproduces a byte-identical scenario dict in
  any process, regardless of hash randomization;
* parameters equal to the family default are normalized away, so two
  spellings of the same instance share one canonical form, one
  :meth:`GeneratorSpec.digest`, and therefore one result-cache entry;
* :meth:`GeneratorSpec.instantiate` round-trips the generated dict
  through JSON, so tuples, numpy scalars, or other non-JSON types fail
  loudly at generation time, never at cache-compare time.

Scenario JSON files opt in with a top-level ``generator`` key::

    {"generator": {"family": "poisson", "params": {"rate_per_s": 3.0}},
     "policy": "baseline", "duration_s": 20}

:func:`expand_generated` resolves the family, generates the base
scenario, then lets the file's remaining top-level keys override it —
and the generator seed defaults to the scenario ``seed``, which is
exactly the key ``sweep --seeds`` varies, giving deterministic
per-seed instance expansion with stable cache/journal identities.

Fleet eligibility is declared per family
(:attr:`ScenarioFamily.fleet_eligible`) and asserted in tests against
:func:`repro.fleet.check_fleet_supported` on built instances.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.scenario import reject_unknown_keys
from repro.workloads.programs import PROGRAMS

#: Machine shorthand accepted by every family's ``machine`` parameter —
#: a flat string so specs stay scalar-valued and trivially hashable.
MACHINE_PRESETS: Mapping[str, Mapping[str, Any]] = MappingProxyType({
    "ibm_x445": {"preset": "ibm_x445", "smt": True},
    "ibm_x445-nosmt": {"preset": "ibm_x445", "smt": False},
    "smp2": {"preset": "smp", "n_cpus": 2},
    "smp4": {"preset": "smp", "n_cpus": 4},
    "smp8": {"preset": "smp", "n_cpus": 8},
    "cmp2x2": {"preset": "cmp", "packages": 2, "cores": 2, "smt": False},
})


def machine_dict(name: str) -> dict[str, Any]:
    """The ``machine`` scenario block for a preset shorthand."""
    try:
        return dict(MACHINE_PRESETS[name])
    except KeyError:
        raise ValueError(
            f"unknown machine shorthand {name!r}; expected one of "
            f"{', '.join(MACHINE_PRESETS)}"
        ) from None


def machine_n_cpus(name: str) -> int:
    """Logical CPU count of a preset — generators that pin affinity
    masks (``cpus_allowed``) need the topology before the scenario is
    parsed."""
    from repro.cpu.topology import MachineSpec

    spec = machine_dict(name)
    preset = spec["preset"]
    if preset == "ibm_x445":
        return MachineSpec.ibm_x445(smt=bool(spec.get("smt", True))).n_cpus
    if preset == "smp":
        return MachineSpec.smp(int(spec["n_cpus"])).n_cpus
    return MachineSpec.cmp(
        packages=int(spec.get("packages", 2)),
        cores=int(spec.get("cores", 2)),
        smt=bool(spec.get("smt", False)),
    ).n_cpus


# ---------------------------------------------------------------------------
# Parameter validation helpers shared by the family generators
# ---------------------------------------------------------------------------

def require_number(
    family: str,
    key: str,
    value: Any,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
    positive: bool = False,
) -> float:
    """A finite float, optionally bounded; errors name family and key."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{family}: {key} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ValueError(f"{family}: {key} must be finite, got {value!r}")
    if positive and not number > 0:
        raise ValueError(f"{family}: {key} must be positive, got {number}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{family}: {key} must be >= {minimum}, got {number}")
    if maximum is not None and number > maximum:
        raise ValueError(f"{family}: {key} must be <= {maximum}, got {number}")
    return number


def require_int(
    family: str, key: str, value: Any, *, minimum: int = 0
) -> int:
    """An integer (bools rejected) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{family}: {key} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{family}: {key} must be >= {minimum}, got {value}")
    return value


def require_programs(family: str, key: str, value: Any) -> list[str]:
    """A non-empty list of known program names."""
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ValueError(
            f"{family}: {key} must be a list of program names, got {value!r}"
        )
    names = list(value)
    if not names:
        raise ValueError(f"{family}: {key} must not be empty")
    for name in names:
        if name not in PROGRAMS:
            raise ValueError(
                f"{family}: {key} names unknown program {name!r}; "
                f"available: {sorted(PROGRAMS)}"
            )
    return names


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ScenarioFamily:
    """One registered generator family.

    Attributes
    ----------
    name:
        Registry key, lowercase with dashes.
    description:
        One-line catalog entry (``docs/scenarios.md`` mirrors these).
    defaults:
        Every accepted parameter with its default value; a spec may
        only set keys listed here.
    generate:
        ``(params, rng) -> scenario dict``.  ``params`` is the defaults
        mapping with the spec's overrides merged in; ``rng`` is the
        spec-derived stream — the function must draw all randomness
        from it and must validate its parameters up front.
    fleet_eligible:
        Whether generated instances satisfy
        :func:`repro.fleet.check_fleet_supported` (noise pinned to
        zero, no throttling) — declared here, asserted by tests, and
        relied on by ``sweep --engine fleet`` packing.
    adversarial:
        Families engineered to maximize migrations/throttling rather
        than model a benign arrival process.
    """

    name: str
    description: str
    defaults: Mapping[str, Any]
    generate: Callable[[Mapping[str, Any], random.Random], dict]
    fleet_eligible: bool = False
    adversarial: bool = False


_REGISTRY: dict[str, ScenarioFamily] = {}


def register_family(family: ScenarioFamily) -> ScenarioFamily:
    """Add a family to the registry (import-time); duplicate names raise."""
    if family.name in _REGISTRY:
        raise ValueError(f"scenario family {family.name!r} already registered")
    _REGISTRY[family.name] = family
    return family


def family_names() -> tuple[str, ...]:
    """Registered family names, in registration order."""
    return tuple(_REGISTRY)


def family_by_name(name: str) -> ScenarioFamily:
    """Look up a family; ``ValueError`` lists the valid names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario family {name!r}; expected one of "
            f"{', '.join(_REGISTRY) or '(none registered)'}"
        ) from None


# ---------------------------------------------------------------------------
# Generator specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """One declarative scenario instance: family + params + seed.

    ``params`` holds only the *overrides* — values equal to the family
    default are dropped at construction so equivalent spellings share
    one canonical JSON form and one digest.
    """

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 1

    def __post_init__(self) -> None:
        definition = family_by_name(self.family)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(
                f"{self.family}: seed must be an integer, got {self.seed!r}"
            )
        unknown = set(self.params) - set(definition.defaults)
        if unknown:
            raise ValueError(
                f"{self.family}: unknown parameter(s) {sorted(unknown)}; "
                f"accepted: {sorted(definition.defaults)}"
            )
        normalized = {
            key: value
            for key, value in self.params.items()
            if value != definition.defaults[key]
        }
        object.__setattr__(self, "params", MappingProxyType(normalized))

    # -- identity ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The canonical plain-data form (JSON round-trippable)."""
        out: dict[str, Any] = {"family": self.family, "seed": int(self.seed)}
        if self.params:
            out["params"] = {k: self.params[k] for k in sorted(self.params)}
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GeneratorSpec":
        reject_unknown_keys(data, "generator", ("family", "params", "seed"))
        if "family" not in data:
            raise ValueError("generator spec needs a 'family' key")
        return cls(
            family=data["family"],
            params=dict(data.get("params") or {}),
            seed=int(data.get("seed", 1)),
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 of the canonical form — the instance identity."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- generation --------------------------------------------------------
    def rng(self) -> random.Random:
        """The spec-derived random stream all generation draws from."""
        digest = hashlib.sha256(
            b"repro-scenario-gen:" + self.canonical_json().encode()
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def merged_params(self) -> dict[str, Any]:
        defaults = dict(family_by_name(self.family).defaults)
        defaults.update(self.params)
        return defaults

    def instantiate(self) -> dict[str, Any]:
        """Generate the scenario dict (the ``parse_scenario`` shape).

        The result is passed through a JSON round-trip so any non-JSON
        value a generator leaks fails here, and byte comparisons of
        re-generated instances are exact.
        """
        definition = family_by_name(self.family)
        scenario = definition.generate(self.merged_params(), self.rng())
        scenario.setdefault("name", f"{self.family}-s{self.seed}")
        scenario.setdefault("seed", int(self.seed))
        try:
            rebuilt = json.loads(
                json.dumps(scenario, allow_nan=False)
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{self.family}: generated scenario is not JSON-clean: {exc}"
            ) from None
        if rebuilt != scenario:
            # json.dumps silently coerces tuples (and similar) to lists;
            # a generator that leaks them would break byte-determinism
            # guarantees elsewhere, so refuse rather than normalize.
            raise ValueError(
                f"{self.family}: generated scenario is not JSON-clean: "
                "values changed under a JSON round-trip"
            )
        return rebuilt

    def build(self):
        """Parse the generated dict into a runnable
        :class:`repro.scenario.Scenario`."""
        from repro.scenario import parse_scenario

        return parse_scenario(self.instantiate())


def generate_scenario(
    family: str, params: Mapping[str, Any] | None = None, seed: int = 1
) -> dict[str, Any]:
    """Convenience: instantiate ``family`` with ``params`` at ``seed``."""
    return GeneratorSpec(family, dict(params or {}), seed).instantiate()


def expand_generated(data: Mapping[str, Any]) -> dict[str, Any]:
    """Expand a scenario dict carrying a ``generator`` key.

    The generated scenario forms the base; every other top-level key of
    ``data`` overrides it (policy, duration, seed, cadence knobs...).
    The generator seed defaults to the dict's own ``seed`` — the key a
    sweep varies per job — so seed expansion is deterministic and the
    unexpanded dict remains the stable cache/journal identity.
    """
    gen = data["generator"]
    if not isinstance(gen, Mapping):
        raise ValueError(
            f"'generator' must be a mapping, got {type(gen).__name__}"
        )
    gen = dict(gen)
    if "seed" not in gen and "seed" in data:
        gen["seed"] = int(data["seed"])
    spec = GeneratorSpec.from_dict(gen)
    scenario = spec.instantiate()
    for key, value in data.items():
        if key != "generator":
            scenario[key] = value
    return scenario
