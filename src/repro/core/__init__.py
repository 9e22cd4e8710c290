"""The paper's primary contribution: task energy profiles and
energy-aware scheduling.

Builds on the :mod:`repro.cpu` hardware substrate and :mod:`repro.sched`
scheduler infrastructure:

* :mod:`repro.core.ewma` / :mod:`repro.core.profile` — §3.3's
  variable-period exponential average and task energy profiles.
* :mod:`repro.core.metrics` — §4.3's calculation parameters
  (runqueue power, thermal power, maximum power, and their ratios).
* :mod:`repro.core.energy_balance` — §4.4's merged energy+load
  balancing (Figure 4).
* :mod:`repro.core.hot_migration` — §4.5's hot-task migration
  (Figure 5), with the §4.7 SMT adaptations.
* :mod:`repro.core.placement` — §4.6's initial task placement.
* :mod:`repro.core.policy` — the scheduling-policy facades wiring the
  pieces into the scheduler (plus the non-energy-aware baseline).
"""

from repro.core.energy_balance import EnergyBalanceConfig, EnergyBalancer
from repro.core.ewma import ThermalEwma, VariablePeriodEwma
from repro.core.hot_migration import HotMigrationConfig, HotTaskMigrator
from repro.core.metrics import MetricsBoard
from repro.core.placement import InitialPlacement, PlacementConfig
from repro.core.policy import (
    BaselinePolicy,
    EnergyAwareConfig,
    EnergyAwarePolicy,
    SchedulingPolicy,
)
from repro.core.profile import EnergyProfile, ProfileConfig

__all__ = [
    "BaselinePolicy",
    "EnergyAwareConfig",
    "EnergyAwarePolicy",
    "EnergyBalanceConfig",
    "EnergyBalancer",
    "EnergyProfile",
    "HotMigrationConfig",
    "HotTaskMigrator",
    "InitialPlacement",
    "MetricsBoard",
    "PlacementConfig",
    "ProfileConfig",
    "SchedulingPolicy",
    "ThermalEwma",
    "VariablePeriodEwma",
]
