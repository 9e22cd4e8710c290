"""Scenario files: declare an experiment as JSON, run it anywhere.

A scenario document is one JSON object naming machine, workload,
policy and duration, such as ``{"machine": {"preset": "ibm_x445",
"smt": false}, "max_power_per_cpu_w": 60.0, "seed": 7, "workload":
{"builder": "mixed_table2", "copies": 3}, "policy": "energy",
"duration_s": 300}``.  The keys each block reads (``workload`` is the
one required block):

* top level: ``machine``, ``workload``, ``policy`` (a name or
  ``{"name", "params"}``), ``duration_s``, ``seed``,
  ``max_power_per_cpu_w``, ``temp_limit_c``, ``thermal``, ``throttle``,
  ``power``, ``generator`` (a :mod:`repro.scenarios` family generates
  the base document, the other keys override it) and the
  :class:`~repro.config.SystemConfig` knobs ``tick_ms``,
  ``timeslice_ms``, ``balance_interval_ms``, ``idle_balance_interval_ms``,
  ``hot_check_interval_ms``, ``sample_interval_s``,
  ``smt_thread_factor`` and ``counter_jitter_sigma``.  ``name`` is a
  sweep and tournament label that the parser accepts unread.  The run
  switches ``options`` (``fast_path``, ``validate``, ``obs``) and
  ``obs`` are read by :func:`read_scenario`, not by
  :func:`parse_scenario`;
* ``machine``: ``preset`` ``ibm_x445`` (``smt``), ``smp`` (``n_cpus``)
  or ``cmp`` (``packages``, ``cores``, ``smt``), or no preset and
  ``nodes``, ``packages_per_node``, ``cores_per_package``,
  ``threads_per_core``;
* ``workload``: ``builder`` ``mixed_table2`` (``copies``),
  ``steady_mix`` (``copies``, ``wobble_interval_s``), ``single_program``
  (``program``, ``n``), ``homogeneity`` (``memrw``, ``pushpop``,
  ``bitcnts``) or ``short_tasks`` (``slots``, ``job_s``); or ``tasks``
  and ``name``, each task ``program``, ``arrival_s``, ``solo_job_s``,
  ``respawn``, ``nice``, ``cpus_allowed``, ``power_cap_w``;
* ``throttle``: ``enabled``, ``scope``, ``mode``; ``power``:
  ``noise_sigma``; ``thermal`` (one object, or a list of one per
  package): ``r_k_per_w``, ``c_j_per_k``, ``ambient_c``.

Any other key, like a value of the wrong type or range, is a
``ValueError`` naming it, so a typo such as ``"duraton_s"`` fails
instead of running the default.  Fleet-eligible scenarios (see
:mod:`repro.fleet`) pin ``counter_jitter_sigma`` and ``noise_sigma`` to
0.  Every command and runner job reads a document through
:func:`read_scenario`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.api import RunOptions, SimulationResult, run_simulation
from repro.config import SystemConfig
from repro.core.policyspec import PolicySpec
from repro.cpu.thermal import ThermalParams
from repro.cpu.throttle import ThrottleConfig
from repro.cpu.topology import MachineSpec
from repro.cpu.power import PowerModelParams
from repro.workloads.generator import (
    TaskSpec,
    WorkloadSpec,
    homogeneity_scenario,
    mixed_table2_workload,
    short_task_storm,
    single_program_workload,
    steady_mix_workload,
)
from repro.workloads.programs import program


@dataclass(frozen=True, slots=True)
class Scenario:
    """A parsed, runnable scenario.

    A param-less ``policy`` compares and hashes equal to its name, so
    ``scenario.policy == "energy"`` holds for the plain spelling.
    """

    config: SystemConfig
    workload: WorkloadSpec
    policy: PolicySpec
    duration_s: float

    def run(self, options: RunOptions = RunOptions()) -> SimulationResult:
        """Run this scenario with its own policy and duration.

        ``options`` picks only the run switches (fast or scalar path,
        invariant checker, observer); to run another duration or policy,
        ``dataclasses.replace`` the scenario first.
        """
        return run_simulation(
            self.config, self.workload, policy=self.policy,
            duration_s=self.duration_s, fast_path=options.fast_path,
            validate=options.validate, obs=options.obs,
        )


def converted(spec: Mapping, key: str, convert, *default):
    """``convert(spec[key])``, or ``convert(default)`` when the key is absent.

    A value ``convert`` rejects — ``null``, a string or a list where a
    number belongs, ``Infinity`` for an integer — raises ``ValueError``
    naming the key.  An absent key without a default is a ``KeyError``.
    """
    value = spec.get(key, *default) if default else spec[key]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad {key!r} value {value!r} ({exc})") from None


def _flag(spec: Mapping, key: str, default: bool) -> bool:
    """``spec[key]`` as a switch: ``true`` or ``false``, with ``default``
    when the key is absent or ``null``.  Any other value raises
    ``ValueError`` naming the key."""
    value = spec.get(key)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise ValueError(f"bad {key!r} value {value!r} (must be true or false)")
    return value


def reject_unknown_keys(spec: Mapping, what: str, known) -> None:
    """Raise ``ValueError`` (``unknown <what> keys: [...]``) when ``spec``
    holds a key outside ``known``."""
    unknown = set(spec) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _optional(spec: Mapping, key: str, convert):
    """:func:`converted` for a setting that ``null`` or absence leaves unset."""
    return None if spec.get(key) is None else converted(spec, key, convert)


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("must be finite")
    return number


def _non_negative(value) -> float:
    number = _finite(value)
    if number < 0:
        raise ValueError("must be non-negative")
    return number


def _positive(value) -> float:
    number = _finite(value)
    if number <= 0:
        raise ValueError("must be positive")
    return number


def _cpu_list(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError("must be a list of CPU ids")
    return tuple(int(cpu) for cpu in value)


def _block(data: Mapping, key: str, default=None):
    """``data[key]`` (``default`` when absent), which must be an object."""
    value = data.get(key, default)
    if not isinstance(value, Mapping):
        raise ValueError(f"{key!r} must be a JSON object, not {value!r}")
    return value


def _parse_machine(spec: Mapping) -> MachineSpec:
    preset = spec.get("preset")
    if preset == "ibm_x445":
        reject_unknown_keys(spec, "machine", ("preset", "smt"))
        return MachineSpec.ibm_x445(smt=_flag(spec, "smt", True))
    if preset == "smp":
        reject_unknown_keys(spec, "machine", ("preset", "n_cpus"))
        return MachineSpec.smp(converted(spec, "n_cpus", int))
    if preset == "cmp":
        reject_unknown_keys(spec, "machine",
                            ("preset", "packages", "cores", "smt"))
        return MachineSpec.cmp(
            packages=converted(spec, "packages", int, 2),
            cores=converted(spec, "cores", int, 2),
            smt=_flag(spec, "smt", False),
        )
    if preset is not None:
        raise ValueError(f"unknown machine preset {preset!r}")
    reject_unknown_keys(spec, "machine", (
        "preset", "nodes", "packages_per_node", "cores_per_package",
        "threads_per_core"))
    return MachineSpec(
        nodes=converted(spec, "nodes", int, 1),
        packages_per_node=converted(spec, "packages_per_node", int, 1),
        cores_per_package=converted(spec, "cores_per_package", int, 1),
        threads_per_core=converted(spec, "threads_per_core", int, 1),
    )


def _parse_thermal(spec, n_packages: int):
    if spec is None:
        return ThermalParams()
    if isinstance(spec, list):
        if len(spec) != n_packages:
            raise ValueError(
                f"need {n_packages} per-package thermal entries, got {len(spec)}"
            )
        return tuple(_parse_thermal(entry, 1) for entry in spec)
    if not isinstance(spec, Mapping):
        raise ValueError(
            f"'thermal' must be a JSON object or a list of objects, "
            f"not {spec!r}"
        )
    reject_unknown_keys(spec, "thermal",
                        ("r_k_per_w", "c_j_per_k", "ambient_c"))
    return ThermalParams(
        r_k_per_w=converted(spec, "r_k_per_w", _positive, 0.30),
        c_j_per_k=converted(spec, "c_j_per_k", _positive, 66.7),
        ambient_c=converted(spec, "ambient_c", _finite, 25.0),
    )


def _parse_task(entry) -> TaskSpec:
    if not isinstance(entry, Mapping):
        raise ValueError(f"each task must be a JSON object, not {entry!r}")
    reject_unknown_keys(entry, "task", (
        "program", "arrival_s", "solo_job_s", "respawn", "nice",
        "cpus_allowed", "power_cap_w"))
    return TaskSpec(
        program=converted(entry, "program", program),
        arrival_s=converted(entry, "arrival_s", float, 0.0),
        solo_job_s=_optional(entry, "solo_job_s", float),
        respawn=entry.get("respawn", "restart_same"),
        nice=converted(entry, "nice", int, 0),
        cpus_allowed=_optional(entry, "cpus_allowed", _cpu_list),
        power_cap_w=_optional(entry, "power_cap_w", float),
    )


def _parse_workload(spec: Mapping) -> WorkloadSpec:
    if "tasks" in spec:
        reject_unknown_keys(spec, "workload", ("tasks", "name"))
        if not isinstance(spec["tasks"], list):
            raise ValueError(
                f"'tasks' must be a JSON list, not {spec['tasks']!r}"
            )
        tasks = tuple(_parse_task(entry) for entry in spec["tasks"])
        return WorkloadSpec(name=spec.get("name", "scenario"), tasks=tasks)
    builder = spec.get("builder")
    if builder == "mixed_table2":
        reject_unknown_keys(spec, "workload", ("builder", "copies"))
        return mixed_table2_workload(converted(spec, "copies", int, 3))
    if builder == "steady_mix":
        reject_unknown_keys(spec, "workload",
                            ("builder", "copies", "wobble_interval_s"))
        return steady_mix_workload(
            converted(spec, "copies", int, 4),
            wobble_interval_s=converted(spec, "wobble_interval_s", float, 10.0),
        )
    if builder == "single_program":
        reject_unknown_keys(spec, "workload", ("builder", "program", "n"))
        return single_program_workload(
            spec["program"], converted(spec, "n", int, 1)
        )
    if builder == "homogeneity":
        reject_unknown_keys(spec, "workload",
                            ("builder", "memrw", "pushpop", "bitcnts"))
        return homogeneity_scenario(
            converted(spec, "memrw", int),
            converted(spec, "pushpop", int),
            converted(spec, "bitcnts", int),
        )
    if builder == "short_tasks":
        reject_unknown_keys(spec, "workload", ("builder", "slots", "job_s"))
        return short_task_storm(
            total_slots=converted(spec, "slots", int, 18),
            job_s=converted(spec, "job_s", float, 0.6),
        )
    raise ValueError(f"unknown workload builder {builder!r}")


#: The cadence / noise knobs passed to ``SystemConfig`` when present
#: (an omitted one keeps its default), with their converters.
_CONFIG_KNOBS = (
    ("tick_ms", int),
    ("timeslice_ms", int),
    ("balance_interval_ms", int),
    ("idle_balance_interval_ms", int),
    ("hot_check_interval_ms", int),
    ("sample_interval_s", _non_negative),
    ("smt_thread_factor", float),
    ("counter_jitter_sigma", _non_negative),
)

#: The top-level keys :func:`parse_scenario` reads, and ``name``, the
#: display label it accepts without reading.
_SCENARIO_KEYS = frozenset({
    "name", "machine", "throttle", "power", "workload", "duration_s",
    "thermal", "temp_limit_c", "max_power_per_cpu_w", "seed", "policy",
    *(key for key, _convert in _CONFIG_KNOBS),
})


def parse_scenario(data: Mapping) -> Scenario:
    """Build a runnable scenario from a parsed JSON object.

    A dict carrying a top-level ``generator`` key is expanded through
    the scenario registry first (:mod:`repro.scenarios`): the named
    family generates the base scenario from the spec's seed, and the
    dict's remaining keys override it.  The import is lazy because
    ``repro.scenarios`` builds on this module.

    Raises ``ValueError`` when the document or a nested block is not an
    object, and, naming the key, when a block holds a key it does not
    read (the run switches included) or a value has the wrong type or
    range (``duration_s`` must be a positive finite number, ``copies``
    an integer, and so on).
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"a scenario must be a JSON object, not {type(data).__name__}"
        )
    if "generator" in data:
        from repro.scenarios import expand_generated

        data = expand_generated(data)
    reject_unknown_keys(data, "scenario", _SCENARIO_KEYS)
    machine_spec = _block(data, "machine", {"preset": "ibm_x445"})
    throttle_spec = _block(data, "throttle", {})
    reject_unknown_keys(throttle_spec, "throttle", ("enabled", "scope", "mode"))
    if "workload" not in data:
        raise ValueError("a scenario needs a 'workload' object")
    workload_spec = _block(data, "workload")
    duration_s = converted(data, "duration_s", _positive, 300.0)
    machine = _parse_machine(machine_spec)
    throttle = ThrottleConfig(
        enabled=_flag(throttle_spec, "enabled", False),
        scope=throttle_spec.get("scope", "logical"),
        mode=throttle_spec.get("mode", "hlt"),
    )
    kwargs = {
        key: converted(data, key, convert)
        for key, convert in _CONFIG_KNOBS if key in data
    }
    if data.get("power") is not None:
        power_spec = _block(data, "power")
        reject_unknown_keys(power_spec, "power", ("noise_sigma",))
        kwargs["power"] = PowerModelParams(
            noise_sigma=converted(power_spec, "noise_sigma", _non_negative, 0.015),
        )
    config = SystemConfig(
        machine=machine,
        thermal=_parse_thermal(data.get("thermal"), machine.n_packages),
        temp_limit_c=_optional(data, "temp_limit_c", _finite),
        max_power_per_cpu_w=_optional(data, "max_power_per_cpu_w", _positive),
        throttle=throttle,
        seed=converted(data, "seed", int, 1),
        **kwargs,
    )
    if config.temp_limit_c is not None and any(
        config.package_max_power_w(pkg) <= 0
        for pkg in range(machine.n_packages)
    ):
        raise ValueError(
            f"'temp_limit_c' {config.temp_limit_c!r} must lie above the "
            f"ambient temperature"
        )
    return Scenario(
        config=config,
        workload=_parse_workload(workload_spec),
        # A name or a {"name": ..., "params": {...}} mapping; unknown
        # names/params raise here, before any run starts.
        policy=converted(data, "policy", PolicySpec.coerce, "energy"),
        duration_s=duration_s,
    )


#: The keys of a document's ``"options"`` object.
_SWITCHES = ("fast_path", "validate", "obs")


def read_run_options(data: dict) -> RunOptions:
    """Pop a document's run switches off ``data``.

    Two keys carry them: the ``"options"`` object or ``null``
    (``fast_path``, ``validate``, ``obs``; any other key raises
    ``ValueError``) and the top-level ``"obs"``, which turns the observer
    on as ``options.obs`` does.  Each switch is ``true`` or ``false``,
    and ``null`` keeps the default; any other value raises
    ``ValueError`` naming it.  Returns the :class:`~repro.api.RunOptions`
    they spell.
    """
    given = data.pop("options", None)
    if given is None:
        given = {}
    if not isinstance(given, Mapping):
        raise ValueError(f"'options' must be an object or null, not {given!r}")
    reject_unknown_keys(given, "scenario option", _SWITCHES)
    plain = RunOptions()
    switches = {key: _flag(given, key, getattr(plain, key)) for key in _SWITCHES}
    if _flag(data, "obs", False):
        switches["obs"] = True
    data.pop("obs", None)
    return RunOptions(**switches)


def read_scenario(data: Mapping) -> tuple[Scenario, RunOptions]:
    """Read a scenario document, a parsed JSON object: ``(scenario, run
    switches)``.

    :func:`read_run_options` takes the switches off a copy of ``data``
    and :func:`parse_scenario` parses the rest; a document that cannot
    build raises ``ValueError`` (or ``KeyError``).
    """
    rest = dict(data)
    options = read_run_options(rest)
    # Looked up as a module global at call time, so a wrapper installed
    # on ``repro.scenario.parse_scenario`` sees every document read.
    return parse_scenario(rest), options
