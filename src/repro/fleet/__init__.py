"""Vectorized fleet engine: N independent machines per tick.

See :mod:`repro.fleet.engine` for the structure-of-arrays layout and
the eligibility/homogeneity rules, and ``docs/fleet_engine.md`` for the
user-facing guide.
"""

from repro.fleet.engine import (
    FleetEngine,
    FleetStats,
    FleetUnsupported,
    check_fleet_supported,
    fleet_config_reasons,
)

__all__ = [
    "FleetEngine",
    "FleetStats",
    "FleetUnsupported",
    "check_fleet_supported",
    "fleet_config_reasons",
]
