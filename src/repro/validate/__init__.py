"""Runtime correctness layer: invariants, differential oracle, faults.

Three complementary instruments over the same simulator:

* :mod:`repro.validate.invariants` — predicates over live
  :class:`~repro.system.System` state (energy conservation, thermal
  bounds, hysteresis, migration preconditions, bookkeeping), checked
  via opt-in hooks while a simulation runs;
* :mod:`repro.validate.oracle` — per-tick lockstep replay of the fast
  and scalar tick paths with first-divergence reporting, plus the
  SMT-sibling relabeling metamorphic check;
* :mod:`repro.validate.faults` — seeded perturbation of counter reads,
  counter registers, migration requests, and thermal coefficients,
  asserting graceful degradation;
* :mod:`repro.validate.fleet` — lockstep replay of the vectorized
  fleet engine against N scalar twins with per-machine
  first-divergence reporting.

``python -m repro validate`` (see :mod:`repro.validate.runner`) runs
the full matrix over the pinned scenarios.
"""

from repro.validate.faults import FaultInjector, FaultPlan, load_fault_plans
from repro.validate.fleet import (
    FleetOracleReport,
    MemberDivergence,
    fleet_lockstep,
    fleet_oracle_check,
)
from repro.validate.invariants import (
    FAULT_KINDS,
    REGISTRY,
    Invariant,
    InvariantChecker,
    InvariantViolation,
    ValidationConfig,
    Violation,
    invariant_by_name,
)
from repro.validate.oracle import (
    MetamorphicReport,
    OracleReport,
    differential_replay,
    replay_pair,
    smt_relabel_check,
)
from repro.validate.runner import (
    format_validation_report,
    golden_trace,
    run_validation,
    write_golden,
    write_validation_json,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FleetOracleReport",
    "Invariant",
    "InvariantChecker",
    "InvariantViolation",
    "MemberDivergence",
    "MetamorphicReport",
    "OracleReport",
    "REGISTRY",
    "ValidationConfig",
    "Violation",
    "differential_replay",
    "fleet_lockstep",
    "fleet_oracle_check",
    "format_validation_report",
    "golden_trace",
    "invariant_by_name",
    "load_fault_plans",
    "replay_pair",
    "run_validation",
    "smt_relabel_check",
    "write_golden",
    "write_validation_json",
]
