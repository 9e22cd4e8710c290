"""Runtime correctness layer: invariants, differential oracle, faults.

Three complementary instruments over the same simulator:

* :mod:`repro.validate.invariants` — predicates over live
  :class:`~repro.system.System` state (energy conservation, thermal
  bounds, hysteresis, migration preconditions, bookkeeping), checked
  via opt-in hooks while a simulation runs;
* :mod:`repro.validate.oracle` — one per-tick lockstep loop
  (:func:`lockstep`) that replays the fast tick path, or the vectorized
  fleet engine, against scalar references with per-machine
  first-divergence reporting, plus the SMT-sibling relabeling
  metamorphic check;
* :mod:`repro.validate.faults` — seeded perturbation of counter reads,
  counter registers, migration requests, and thermal coefficients,
  asserting graceful degradation.

``python -m repro validate`` (see :mod:`repro.validate.runner`) runs
the full matrix over the pinned scenarios.
"""

from repro.validate.faults import FaultInjector, FaultPlan, load_fault_plans
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
    Divergence,
    MetamorphicReport,
    OracleReport,
    differential_replay,
    fleet_lockstep,
    fleet_oracle_check,
    lockstep,
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
    "Divergence",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "Invariant",
    "InvariantChecker",
    "InvariantViolation",
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
    "lockstep",
    "replay_pair",
    "run_validation",
    "smt_relabel_check",
    "write_golden",
    "write_validation_json",
]
