"""High-level experiment API.

    from repro import MachineSpec, SystemConfig, mixed_table2_workload, run_simulation

    config = SystemConfig(machine=MachineSpec.ibm_x445(smt=False),
                          max_power_per_cpu_w=60.0)
    result = run_simulation(config, mixed_table2_workload(3),
                            policy="energy", duration_s=300)
    print(result.throughput_jobs_per_min(), result.migrations())

Every run is deterministic in (config, workload, policy, duration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.policy import EnergyAwareConfig
from repro.core.policyspec import PolicySpec
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.events import EventKind, EventRecord
from repro.sim.trace import TimeSeries, Tracer
from repro.system import System
from repro.workloads.generator import WorkloadSpec


@dataclass
class SimulationResult:
    """Everything measurable about one completed run."""

    system: System
    duration_s: float

    # -- throughput (the paper's headline metric) ------------------------------
    @property
    def jobs_completed(self) -> int:
        return self.system.tracer.counters.get("jobs_total")

    def fractional_jobs(self) -> float:
        return self.system.fractional_jobs()

    def throughput_jobs_per_min(self) -> float:
        """Tasks finished per minute, including fractional progress."""
        return self.fractional_jobs() / self.duration_s * 60.0

    # -- migrations -------------------------------------------------------------
    def migrations(self, reason: str | None = None) -> int:
        counters = self.system.tracer.counters
        if reason is None:
            return counters.get("migrations")
        return counters.get(f"migrations:{reason}")

    def migration_events(self) -> list[EventRecord]:
        return self.system.tracer.events_of(EventKind.MIGRATION)

    # -- throttling ---------------------------------------------------------------
    def throttle_fraction(self, cpu: int) -> float:
        return self.system.throttle.throttled_fraction(cpu)

    def average_throttle_fraction(self) -> float:
        return self.system.throttle.average_fraction()

    def dvfs_scaled_fraction(self, cpu: int) -> float:
        """Fraction of time a CPU ran below full frequency (DVFS mode)."""
        return self.system.dvfs.scaled_fraction(cpu)

    def average_dvfs_scaled_fraction(self) -> float:
        """Machine-wide fraction of governed time below full frequency."""
        system = self.system
        return sum(
            system.dvfs.scaled_fraction(c) for c in range(system.n_cpus)
        ) / system.n_cpus

    def average_frequency_scale(self) -> float:
        """Mean relative clock over CPUs (1.0 when DVFS never engaged)."""
        system = self.system
        return sum(
            system.dvfs.mean_scale(c) for c in range(system.n_cpus)
        ) / system.n_cpus

    # -- energy (frequency-aware Eq. 1 accounting) -----------------------------
    def package_energy_j(self, package: int) -> float:
        """Estimated energy one package consumed over the run (J)."""
        return self.system._pkg_energy_j[package]

    def total_energy_j(self) -> float:
        """Estimated machine energy over the run (J), summed package-
        ascending so the value is deterministic."""
        return sum(self.system._pkg_energy_j)

    def cpu_utilization(self, cpu: int) -> float:
        """Fraction of the run this CPU executed a task (not idle, not
        halted)."""
        return self.system.cpu_utilization(cpu)

    def average_utilization(self) -> float:
        return sum(
            self.system.cpu_utilization(c) for c in range(self.system.n_cpus)
        ) / self.system.n_cpus

    # -- responsiveness ------------------------------------------------------
    def mean_wake_latency_ms(self) -> float:
        """Average ready-to-running latency over all tasks (§1's
        responsiveness criterion)."""
        tasks = self.system.live_tasks() + self.system.exited_tasks
        total = sum(t.wake_latency_sum_ms for t in tasks)
        count = sum(t.wake_latency_n for t in tasks)
        return total / count if count else 0.0

    def max_wake_latency_ms(self) -> float:
        """Worst-case ready-to-running latency observed."""
        tasks = self.system.live_tasks() + self.system.exited_tasks
        return max((t.wake_latency_max_ms for t in tasks), default=0.0)

    # -- power / thermal ------------------------------------------------------------
    def thermal_power_series(self, cpu: int) -> TimeSeries:
        return self.system.tracer.get_series(f"thermal_power.cpu{cpu:02d}")

    def all_thermal_power_series(self) -> list[TimeSeries]:
        return self.system.tracer.series_matching("thermal_power.")

    def temperature_series(self, package: int) -> TimeSeries:
        return self.system.tracer.get_series(f"temperature.pkg{package}")

    def estimation_error(self) -> float:
        return self.system.estimation_error()

    @property
    def max_temperature_error_k(self) -> float:
        return self.system.max_temp_err_k

    @property
    def max_temperature_c(self) -> float:
        return self.system.max_temp_seen_c

    @property
    def tracer(self) -> Tracer:
        return self.system.tracer

    # -- observability ---------------------------------------------------------
    @property
    def observer(self):
        """The run's :class:`repro.obs.observer.Observer`, or None.

        Present only when the run was built with ``obs=``; carries the
        decision audit log, the metrics registry, and (when enabled)
        the tick-phase profile.
        """
        return self.system.observer

    @property
    def audit(self):
        """The decision audit log, or None when observability is off."""
        observer = self.system.observer
        return observer.audit if observer is not None else None

    def explain(self, pid: int) -> list:
        """Audit records concerning one task (placements, decisions
        that selected it, committed migrations).

        Raises if the run was not built with ``obs=`` — an empty answer
        would be indistinguishable from "the task never moved".
        """
        audit = self.audit
        if audit is None:
            raise ValueError(
                "no audit log: run with obs=True (or an ObservabilityConfig "
                "with audit enabled) to record decisions"
            )
        return audit.explain(pid)

    def metrics_snapshot(self) -> dict:
        """JSON metrics snapshot (requires ``obs=`` with metrics on)."""
        observer = self.system.observer
        if observer is None:
            raise ValueError("no metrics: run with obs=True to record them")
        return observer.metrics_snapshot()

    def chrome_trace(self, scenario: str = "") -> dict:
        """Chrome trace-event payload of this run's event log.

        Works on any result — the event stream is always collected.
        """
        from repro.obs.chrome_trace import export_chrome_trace

        return export_chrome_trace(self, scenario=scenario)

    # -- runtime validation ---------------------------------------------------
    @property
    def violations(self) -> list:
        """Invariant violations recorded during the run.

        Empty unless the run was built with ``validate=`` (see
        :mod:`repro.validate.invariants`).
        """
        if self.system.validator is None:
            return []
        return list(self.system.validator.violations)

    # -- structured summary ---------------------------------------------------
    def scalar_summary(self) -> dict[str, float]:
        """The headline metrics as one flat float-valued dict.

        This is the shape the parallel runner caches and the sweep
        aggregator folds across seeds (``repro.analysis.stats
        .summarize_scalars``); richer nested detail lives in
        :func:`repro.analysis.export.run_summary`.
        """
        return {
            "fractional_jobs": self.fractional_jobs(),
            "jobs_per_min": self.throughput_jobs_per_min(),
            "migrations": float(self.migrations()),
            "average_throttle_fraction": self.average_throttle_fraction(),
            "average_utilization": self.average_utilization(),
            "mean_wake_latency_ms": self.mean_wake_latency_ms(),
            "max_temperature_c": self.max_temperature_c,
            "total_energy_j": self.total_energy_j(),
            "average_frequency_scale": self.average_frequency_scale(),
            "average_dvfs_scaled_fraction": self.average_dvfs_scaled_fraction(),
        }


@dataclass(frozen=True, slots=True)
class RunOptions:
    """The run switches a :class:`repro.scenario.Scenario` does not carry.

    A scenario fixes the machine, workload, policy and duration; these
    three only choose how it runs, and none of them changes a single bit
    of the result: the argument of :meth:`repro.scenario.Scenario.run`
    and of a checkpointed run, and what a scenario document's
    ``"options"`` object and ``"obs"`` key are read into
    (:func:`repro.scenario.read_run_options`).  The fields mean what
    :func:`run_simulation`'s keywords of the same names mean.
    """

    fast_path: bool = True
    validate: object = False
    obs: object = False


def run_simulation(
    config: SystemConfig,
    workload: WorkloadSpec,
    *,
    policy: PolicySpec | str = "energy",
    policy_config: EnergyAwareConfig | None = None,
    duration_s: float = 300.0,
    fast_path: bool = True,
    validate=False,
    obs=False,
) -> SimulationResult:
    """Build a system, run it for ``duration_s``, return the result.

    ``policy`` accepts a :class:`~repro.core.policyspec.PolicySpec`, a name
    string, or a ``{"name": ..., "params": {...}}`` mapping; unknown
    names raise ``ValueError`` up front.
    ``fast_path`` selects the batched tick loop (the default) or the
    scalar reference implementation — results are bit-identical either
    way (``repro validate`` asserts this), so the flag exists for
    benchmarking and verification, not for correctness trade-offs.
    ``validate`` (False, True, or a
    :class:`repro.validate.invariants.ValidationConfig`) installs the
    runtime invariant checker; recorded violations are available as
    :attr:`SimulationResult.violations`.
    ``obs`` (False, True, or a
    :class:`repro.obs.observer.ObservabilityConfig`) installs the
    observer: decision audit log, metrics registry, and optional
    tick-phase profiling, reachable as :attr:`SimulationResult.observer`.
    Observation never changes results — runs with and without it are
    bit-identical (the obs tests assert this).
    """
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
    engine.run_for(duration_s)
    return SimulationResult(system=system, duration_s=duration_s)


@dataclass(frozen=True, slots=True)
class PolicyComparison:
    """A/B comparison of the same scenario under two policies."""

    baseline: SimulationResult
    energy_aware: SimulationResult

    @property
    def throughput_gain(self) -> float:
        """Relative throughput increase of energy-aware over baseline."""
        base = self.baseline.fractional_jobs()
        if base <= 0:
            raise ValueError("baseline made no progress; gain undefined")
        return self.energy_aware.fractional_jobs() / base - 1.0

    @property
    def migration_increase(self) -> tuple[int, int]:
        return self.baseline.migrations(), self.energy_aware.migrations()

    def scalar_summary(self) -> dict[str, float]:
        """Both runs' headline metrics plus the gain, as one flat dict.

        Baseline metrics are prefixed ``baseline_``, energy-aware ones
        ``energy_`` — the A/B analogue of
        :meth:`SimulationResult.scalar_summary`.
        """
        out = {"throughput_gain": self.throughput_gain}
        for prefix, result in (("baseline", self.baseline),
                               ("energy", self.energy_aware)):
            for key, value in result.scalar_summary().items():
                out[f"{prefix}_{key}"] = value
        return out


def compare_policies(
    config: SystemConfig,
    workload: WorkloadSpec,
    duration_s: float = 300.0,
    policy_config: EnergyAwareConfig | None = None,
    fast_path: bool = True,
) -> PolicyComparison:
    """Run the scenario under the baseline and the energy-aware policy.

    Both runs share the configuration (and hence the seed), mirroring the
    paper's enabled/disabled measurements.
    """
    baseline = run_simulation(
        config,
        workload,
        policy="baseline",
        duration_s=duration_s,
        fast_path=fast_path,
    )
    energy = run_simulation(
        config,
        workload,
        policy="energy",
        policy_config=policy_config,
        duration_s=duration_s,
        fast_path=fast_path,
    )
    return PolicyComparison(baseline=baseline, energy_aware=energy)
