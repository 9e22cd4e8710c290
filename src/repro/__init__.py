"""repro — reproduction of Merkel & Bellosa, *Balancing Power
Consumption in Multiprocessor Systems* (EuroSys 2006).

The package implements the paper's two contributions — per-task energy
profiles from event monitoring counters, and energy-aware multiprocessor
scheduling (energy balancing, hot task migration, initial placement) —
on top of a fully simulated SMP/SMT/NUMA substrate: synthetic PMCs, a
calibrated linear energy estimator, an RC thermal model, ``hlt``
throttling, and a Linux-2.6-style runqueue/domain scheduler.

Quickstart::

    from repro import (MachineSpec, SystemConfig, compare_policies,
                       mixed_table2_workload)

    config = SystemConfig(machine=MachineSpec.ibm_x445(smt=False),
                          max_power_per_cpu_w=60.0)
    cmp = compare_policies(config, mixed_table2_workload(3), duration_s=300)
    print(f"throughput gain: {cmp.throughput_gain:+.1%}")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.api import (
    PolicyComparison,
    RunOptions,
    SimulationResult,
    compare_policies,
    run_simulation,
)
from repro.config import SystemConfig
from repro.core.policy import EnergyAwareConfig
from repro.core.policyspec import PolicyDefinition, PolicySpec, policy_names
from repro.obs import ObservabilityConfig
from repro.core.profile import ProfileConfig
from repro.cpu.power import PowerModelParams
from repro.cpu.thermal import ThermalParams
from repro.cpu.throttle import ThrottleConfig
from repro.cpu.topology import MachineSpec, Topology
from repro.system import System
from repro.workloads.generator import (
    WorkloadSpec,
    TaskSpec,
    homogeneity_scenario,
    homogeneity_sweep,
    mixed_table2_workload,
    short_task_storm,
    single_program_workload,
)
from repro.scenario import Scenario, parse_scenario, read_scenario
from repro.workloads.programs import PROGRAMS, ProgramSpec, program
from repro.workloads.traces import PowerTrace

__version__ = "1.0.0"

__all__ = [
    "EnergyAwareConfig",
    "MachineSpec",
    "ObservabilityConfig",
    "PROGRAMS",
    "PolicyComparison",
    "PolicyDefinition",
    "PolicySpec",
    "PowerModelParams",
    "PowerTrace",
    "RunOptions",
    "Scenario",
    "ProfileConfig",
    "ProgramSpec",
    "SimulationResult",
    "System",
    "SystemConfig",
    "TaskSpec",
    "ThermalParams",
    "ThrottleConfig",
    "Topology",
    "WorkloadSpec",
    "compare_policies",
    "homogeneity_scenario",
    "homogeneity_sweep",
    "mixed_table2_workload",
    "parse_scenario",
    "policy_names",
    "program",
    "read_scenario",
    "run_simulation",
    "short_task_storm",
    "single_program_workload",
    "__version__",
]
