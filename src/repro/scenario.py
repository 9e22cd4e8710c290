"""Scenario files: declare an experiment as JSON, run it anywhere.

A scenario file describes machine, workload, policy, and duration:

    {
      "machine": {"preset": "ibm_x445", "smt": false},
      "max_power_per_cpu_w": 60.0,
      "seed": 7,
      "workload": {"builder": "mixed_table2", "copies": 3},
      "policy": "energy",
      "duration_s": 300
    }

Workload builders: ``mixed_table2`` (copies), ``steady_mix`` (copies,
wobble_interval_s), ``single_program`` (program, n), ``homogeneity``
(memrw/pushpop/bitcnts counts), ``short_tasks`` (slots, job_s), or an
explicit ``tasks`` list of ``{program, arrival_s?, solo_job_s?,
respawn?, nice?, cpus_allowed?, power_cap_w?}`` objects.

Optional cadence / noise keys (all pass through to
:class:`~repro.config.SystemConfig`, defaults unchanged when omitted):
``tick_ms``, ``timeslice_ms``, ``balance_interval_ms``,
``idle_balance_interval_ms``, ``hot_check_interval_ms``,
``sample_interval_s``, ``smt_thread_factor``, ``counter_jitter_sigma``,
and ``power: {"noise_sigma": ...}``.  Fleet-eligible scenarios (see
:mod:`repro.fleet`) pin ``counter_jitter_sigma`` and ``noise_sigma``
to 0.

Used by ``python -m repro run-file <scenario.json>`` and directly via
:func:`load_scenario` / :func:`run_scenario_dict`.
"""

from __future__ import annotations

import json
import math
import pathlib
from collections.abc import Mapping
from dataclasses import dataclass, replace as dataclasses_replace

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

    def run(
        self, validate=False, obs=False, options: RunOptions | None = None
    ) -> SimulationResult:
        if options is not None:
            if validate or obs:
                raise ValueError(
                    "pass validate/obs inside options= when using RunOptions"
                )
            # The scenario's own policy/duration fill unset option fields.
            merged = dataclasses_replace(
                options,
                policy=(
                    options.policy if options.policy is not None else self.policy
                ),
                duration_s=(
                    options.duration_s
                    if options.duration_s is not None
                    else self.duration_s
                ),
            )
            return run_simulation(self.config, self.workload, options=merged)
        return run_simulation(
            self.config, self.workload, policy=self.policy,
            duration_s=self.duration_s, validate=validate, obs=obs,
        )


def _block(data: Mapping, key: str, default=None):
    """``data[key]`` (``default`` when absent), which must be an object."""
    value = data.get(key, default)
    if not isinstance(value, Mapping):
        raise ValueError(f"{key!r} must be a JSON object, not {value!r}")
    return value


def _parse_machine(spec: dict) -> MachineSpec:
    preset = spec.get("preset")
    if preset == "ibm_x445":
        return MachineSpec.ibm_x445(smt=bool(spec.get("smt", True)))
    if preset == "smp":
        return MachineSpec.smp(int(spec["n_cpus"]))
    if preset == "cmp":
        return MachineSpec.cmp(
            packages=int(spec.get("packages", 2)),
            cores=int(spec.get("cores", 2)),
            smt=bool(spec.get("smt", False)),
        )
    if preset is not None:
        raise ValueError(f"unknown machine preset {preset!r}")
    return MachineSpec(
        nodes=int(spec.get("nodes", 1)),
        packages_per_node=int(spec.get("packages_per_node", 1)),
        cores_per_package=int(spec.get("cores_per_package", 1)),
        threads_per_core=int(spec.get("threads_per_core", 1)),
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
    return ThermalParams(
        r_k_per_w=float(spec.get("r_k_per_w", 0.30)),
        c_j_per_k=float(spec.get("c_j_per_k", 66.7)),
        ambient_c=float(spec.get("ambient_c", 25.0)),
    )


def _parse_task(entry: dict) -> TaskSpec:
    if not isinstance(entry, Mapping):
        raise ValueError(f"each task must be a JSON object, not {entry!r}")
    return TaskSpec(
        program=program(entry["program"]),
        arrival_s=float(entry.get("arrival_s", 0.0)),
        solo_job_s=(
            float(entry["solo_job_s"]) if "solo_job_s" in entry else None
        ),
        respawn=entry.get("respawn", "restart_same"),
        nice=int(entry.get("nice", 0)),
        cpus_allowed=(
            tuple(entry["cpus_allowed"]) if "cpus_allowed" in entry else None
        ),
        power_cap_w=(
            float(entry["power_cap_w"]) if "power_cap_w" in entry else None
        ),
    )


def _parse_workload(spec: dict) -> WorkloadSpec:
    if "tasks" in spec:
        if not isinstance(spec["tasks"], list):
            raise ValueError(
                f"'tasks' must be a JSON list, not {spec['tasks']!r}"
            )
        tasks = tuple(_parse_task(entry) for entry in spec["tasks"])
        return WorkloadSpec(name=spec.get("name", "scenario"), tasks=tasks)
    builder = spec.get("builder")
    if builder == "mixed_table2":
        return mixed_table2_workload(int(spec.get("copies", 3)))
    if builder == "steady_mix":
        return steady_mix_workload(
            int(spec.get("copies", 4)),
            wobble_interval_s=float(spec.get("wobble_interval_s", 10.0)),
        )
    if builder == "single_program":
        return single_program_workload(
            spec["program"], int(spec.get("n", 1))
        )
    if builder == "homogeneity":
        return homogeneity_scenario(
            int(spec["memrw"]), int(spec["pushpop"]), int(spec["bitcnts"])
        )
    if builder == "short_tasks":
        return short_task_storm(
            total_slots=int(spec.get("slots", 18)),
            job_s=float(spec.get("job_s", 0.6)),
        )
    raise ValueError(f"unknown workload builder {builder!r}")


def parse_scenario(data: dict) -> Scenario:
    """Build a runnable scenario from a parsed JSON object.

    A dict carrying a top-level ``generator`` key is expanded through
    the scenario registry first (:mod:`repro.scenarios`): the named
    family generates the base scenario from the spec's seed, and the
    dict's remaining keys override it.  The import is lazy because
    ``repro.scenarios`` builds on this module.

    Raises ``ValueError`` when the document or a nested block
    (``machine``, ``workload`` and its tasks, ``throttle``, ``power``,
    ``thermal``, ``generator``) is not an object, or when
    ``duration_s`` is not a positive finite number.
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"a scenario must be a JSON object, not {type(data).__name__}"
        )
    if "generator" in data:
        from repro.scenarios import expand_generated

        data = expand_generated(data)
    machine_spec = _block(data, "machine", {"preset": "ibm_x445"})
    throttle_spec = _block(data, "throttle", {})
    power_spec = data.get("power")
    if power_spec is not None:
        power_spec = _block(data, "power")
    if "workload" not in data:
        raise ValueError("a scenario needs a 'workload' object")
    workload_spec = _block(data, "workload")
    duration = data.get("duration_s", 300.0)
    try:
        duration_s = float(duration)
    except (TypeError, ValueError):
        duration_s = math.nan
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(
            f"'duration_s' must be a positive number of seconds, "
            f"not {duration!r}"
        )
    machine = _parse_machine(machine_spec)
    throttle = ThrottleConfig(
        enabled=bool(throttle_spec.get("enabled", False)),
        scope=throttle_spec.get("scope", "logical"),
        mode=throttle_spec.get("mode", "hlt"),
    )
    kwargs = {}
    # Cadence / noise knobs pass straight through to SystemConfig when
    # present; omitted keys keep the dataclass defaults (so existing
    # scenario files parse to the exact same config as before).  The
    # fleet engine's eligibility rules read these — a fleet-ready
    # scenario pins noise_sigma and counter_jitter_sigma to 0.
    for key, conv in (
        ("tick_ms", int),
        ("timeslice_ms", int),
        ("balance_interval_ms", int),
        ("idle_balance_interval_ms", int),
        ("hot_check_interval_ms", int),
        ("sample_interval_s", float),
        ("smt_thread_factor", float),
        ("counter_jitter_sigma", float),
    ):
        if key in data:
            kwargs[key] = conv(data[key])
    if power_spec is not None:
        kwargs["power"] = PowerModelParams(
            noise_sigma=float(power_spec.get("noise_sigma", 0.015)),
        )
    config = SystemConfig(
        machine=machine,
        thermal=_parse_thermal(data.get("thermal"), machine.n_packages),
        temp_limit_c=data.get("temp_limit_c"),
        max_power_per_cpu_w=data.get("max_power_per_cpu_w"),
        throttle=throttle,
        seed=int(data.get("seed", 1)),
        **kwargs,
    )
    return Scenario(
        config=config,
        workload=_parse_workload(workload_spec),
        # A name or a {"name": ..., "params": {...}} mapping; unknown
        # names/params raise here, before any run starts.
        policy=PolicySpec.coerce(data.get("policy", "energy")),
        duration_s=duration_s,
    )


def load_scenario(path: str | pathlib.Path) -> Scenario:
    """Parse a scenario JSON file."""
    text = pathlib.Path(path).read_text()
    return parse_scenario(json.loads(text))
