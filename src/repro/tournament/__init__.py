"""Cross-policy tournament: every policy raced on the pinned scenarios.

See :mod:`repro.tournament.harness` for the scenario set, the scoring
rules, and the ``BENCH_policies.json`` payload format.
"""

from repro.tournament.harness import (
    DEFAULT_DURATION_S,
    POLICY_LINEUP,
    SCHEMA,
    TOURNAMENT_SCENARIOS,
    format_policy_report,
    run_tournament,
    write_policies_json,
)

__all__ = [
    "DEFAULT_DURATION_S",
    "POLICY_LINEUP",
    "SCHEMA",
    "TOURNAMENT_SCENARIOS",
    "format_policy_report",
    "run_tournament",
    "write_policies_json",
]
