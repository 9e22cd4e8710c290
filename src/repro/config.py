"""Top-level simulation configuration.

:class:`SystemConfig` gathers every substrate knob in one frozen object;
experiment harnesses construct one per scenario, so runs are fully
described by (config, workload, policy, duration, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.power import PowerModelParams
from repro.cpu.thermal import ThermalParams
from repro.cpu.throttle import ThrottleConfig
from repro.cpu.topology import MachineSpec


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Everything about the simulated system except workload and policy.

    Attributes
    ----------
    machine:
        Topology and clock frequency.
    tick_ms / timeslice_ms:
        Simulation quantum and the scheduler's timeslice.
    balance_interval_ms:
        Period of each CPU's periodic balancing pass (staggered).
    idle_balance_interval_ms:
        How often an idle CPU retries pulling work.
    hot_check_interval_ms:
        Period of hot-task-migration trigger checks.
    power:
        Ground-truth power model parameters.
    thermal:
        Heat-sink parameters — one :class:`ThermalParams` for a
        homogeneous machine, or one per package for heterogeneous
        cooling (Table 3 / Figure 8 setups).
    temp_limit_c:
        Temperature limit; per-package maximum power is derived via each
        package's thermal resistance.  Mutually exclusive with
        ``max_power_per_cpu_w``.
    max_power_per_cpu_w:
        Directly sets every logical CPU's maximum power (the §6.1 setup
        "we set the maximum power of all CPUs to 60 W").
    throttle:
        Temperature-control settings (disabled for the §6.1 runs).
    smt_thread_factor:
        Per-thread throughput with a busy sibling.
    counter_jitter_sigma:
        Multiplicative noise on counter readings.
    cache_warmup_instructions:
        Instructions a migrated task executes at reduced speed while
        re-warming caches (§6.5: "caches can be considered warm after
        executing some millions of instructions").  0 disables
        migration-cost modelling.
    numa_warmup_factor:
        Multiplier on the warmup for migrations that cross the NUMA
        node boundary (§4.1's node affinity: remote memory must be
        re-fetched or accessed remotely).
    cold_cache_ipc_factor:
        Relative execution speed while caches are cold.
    sample_interval_s:
        Trace decimation interval.
    seed:
        Root seed for all random streams.
    """

    machine: MachineSpec = field(default_factory=MachineSpec.ibm_x445)
    tick_ms: int = 10
    timeslice_ms: int = 100
    balance_interval_ms: int = 240
    idle_balance_interval_ms: int = 50
    hot_check_interval_ms: int = 100
    power: PowerModelParams = field(default_factory=PowerModelParams)
    thermal: ThermalParams | tuple[ThermalParams, ...] = field(
        default_factory=ThermalParams
    )
    temp_limit_c: float | None = None
    max_power_per_cpu_w: float | None = None
    throttle: ThrottleConfig = field(default_factory=lambda: ThrottleConfig(enabled=False))
    smt_thread_factor: float = 0.62
    counter_jitter_sigma: float = 0.01
    cache_warmup_instructions: float = 2e7
    numa_warmup_factor: float = 3.0
    cold_cache_ipc_factor: float = 0.7
    sample_interval_s: float = 1.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.tick_ms < 1:
            raise ValueError("tick must be >= 1 ms")
        if self.timeslice_ms < self.tick_ms:
            raise ValueError("timeslice must be >= one tick")
        if self.temp_limit_c is not None and self.max_power_per_cpu_w is not None:
            raise ValueError("set either temp_limit_c or max_power_per_cpu_w, not both")
        thermal = self.thermal
        if isinstance(thermal, tuple) and len(thermal) != self.machine.n_packages:
            raise ValueError(
                f"need {self.machine.n_packages} per-package thermal params, "
                f"got {len(thermal)}"
            )
        if self.cache_warmup_instructions < 0:
            raise ValueError("cache warmup must be non-negative")
        if self.numa_warmup_factor < 1.0:
            raise ValueError("NUMA warmup factor must be >= 1")
        if not 0.0 < self.cold_cache_ipc_factor <= 1.0:
            raise ValueError("cold-cache IPC factor must be in (0, 1]")
        if not 0.0 < self.smt_thread_factor <= 1.0:
            raise ValueError("smt_thread_factor must be in (0, 1]")

    # -- resolution helpers ----------------------------------------------------
    def thermal_for_package(self, package: int) -> ThermalParams:
        if isinstance(self.thermal, tuple):
            return self.thermal[package]
        return self.thermal

    def package_max_power_w(self, package: int) -> float:
        """Maximum sustainable power of one package."""
        threads = self.machine.threads_per_core * self.machine.cores_per_package
        if self.max_power_per_cpu_w is not None:
            return self.max_power_per_cpu_w * threads
        if self.temp_limit_c is not None:
            return self.thermal_for_package(package).power_for_temperature(
                self.temp_limit_c
            )
        # No limit configured: effectively unconstrained, but finite so
        # ratios stay well defined.
        return 1e9

    def cpu_max_power_w(self, package: int) -> float:
        """Per-logical-CPU share of the package budget (§4.7)."""
        threads = self.machine.threads_per_core * self.machine.cores_per_package
        return self.package_max_power_w(package) / threads
