"""Timing harness: batched fast path versus scalar reference.

For every scenario the harness runs the simulation twice — fast path
and scalar path — from identical initial conditions, measures wall
clock and ticks/sec for both, and compares the two runs'
``scalar_summary()`` dicts *byte for byte* (via their JSON encoding, so
two floats only compare equal when their bit patterns do).  A summary
mismatch is a correctness failure, not a performance number.

The resulting payload separates deterministic fields (tick counts,
summaries, identity verdicts) from timing fields, so tests can assert
that everything except the timings is reproducible run-to-run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.api import run_simulation
from repro.core.policyspec import canonical_policy_value
from repro.perf.scenarios import (
    FLEET_SCENARIO,
    FLEET_SEEDS,
    HEADLINE_SCENARIO,
    REFERENCE_SCENARIOS,
    PinnedScenario,
)
from repro.scenario import parse_scenario

#: Schema tag for ``BENCH_perf.json``; bump on layout changes.
#: v2 added the ``self_profile`` tick-phase breakdown; v3 added the
#: ``fleet`` section (vectorized N-machines-per-tick benchmark).
SCHEMA = "repro-perf/3"

#: Simulated duration of the self-profile runs.  Kept short: the
#: profile is a *breakdown* (phase fractions), not a benchmark, and the
#: fractions stabilise within seconds of simulated time.
PROFILE_DURATION_S = 60.0


@dataclass(frozen=True, slots=True)
class BenchScenarioResult:
    """One scenario's measurements."""

    name: str
    description: str
    policy: str
    duration_s: float
    ticks: int
    fast_wall_s: float
    scalar_wall_s: float
    fast_summary: dict[str, float]
    scalar_summary: dict[str, float]

    @property
    def fast_ticks_per_s(self) -> float:
        return self.ticks / self.fast_wall_s

    @property
    def scalar_ticks_per_s(self) -> float:
        return self.ticks / self.scalar_wall_s

    @property
    def speedup(self) -> float:
        """Fast-path throughput relative to the scalar path."""
        return self.scalar_wall_s / self.fast_wall_s

    @property
    def summary_identical(self) -> bool:
        """Byte-level equality of the two paths' scalar summaries."""
        return _encode(self.fast_summary) == _encode(self.scalar_summary)


def _encode(summary: dict[str, float]) -> str:
    """Canonical JSON encoding used for the byte-identity comparison."""
    return json.dumps(summary, sort_keys=True)


def _timed_run(
    scenario: PinnedScenario, duration_s: float, fast_path: bool
) -> tuple[float, dict[str, float], int]:
    parsed = parse_scenario(scenario.scenario)
    start = time.perf_counter()
    result = run_simulation(
        parsed.config,
        parsed.workload,
        policy=parsed.policy,
        duration_s=duration_s,
        fast_path=fast_path,
    )
    wall_s = time.perf_counter() - start
    ticks = int(round(duration_s * 1000.0)) // parsed.config.tick_ms
    return wall_s, result.scalar_summary(), ticks


def run_scenario(
    scenario: PinnedScenario,
    duration_s: float | None = None,
) -> BenchScenarioResult:
    """Benchmark one scenario on both paths, timing each path once."""
    pinned = parse_scenario(scenario.scenario)
    duration = duration_s if duration_s is not None else pinned.duration_s
    fast_wall, fast_summary, ticks = _timed_run(scenario, duration, True)
    scalar_wall, scalar_summary, _ = _timed_run(scenario, duration, False)
    return BenchScenarioResult(
        name=scenario.name,
        description=scenario.description,
        policy=canonical_policy_value(pinned.policy),
        duration_s=duration,
        ticks=ticks,
        fast_wall_s=fast_wall,
        scalar_wall_s=scalar_wall,
        fast_summary=fast_summary,
        scalar_summary=scalar_summary,
    )


def _profiled_phase_report(
    scenario: PinnedScenario, duration_s: float, fast_path: bool
) -> dict:
    from repro.obs import ObservabilityConfig

    parsed = parse_scenario(scenario.scenario)
    result = run_simulation(
        parsed.config,
        parsed.workload,
        policy=parsed.policy,
        duration_s=duration_s,
        fast_path=fast_path,
        obs=ObservabilityConfig(audit=False, metrics=False, profiling=True),
    )
    return result.observer.phase_report()


def profile_scenario(
    scenario: PinnedScenario, duration_s: float | None = None
) -> dict:
    """Tick-phase wall-time breakdown for both execution paths.

    This is the ``self_profile`` section of the benchmark payload: it
    shows *where* wall time goes (execute, thermal, housekeeping, ...)
    so a perf regression can be localised without re-instrumenting.
    """
    duration = min(
        duration_s if duration_s is not None
        else parse_scenario(scenario.scenario).duration_s,
        PROFILE_DURATION_S,
    )
    return {
        "name": scenario.name,
        "duration_s": duration,
        "fast": _profiled_phase_report(scenario, duration, True),
        "scalar": _profiled_phase_report(scenario, duration, False),
    }


def run_fleet_benchmark(
    scenario: PinnedScenario | None = None,
    duration_s: float | None = None,
) -> dict:
    """Benchmark the fleet engine against the per-job fast path.

    Both sides run the *same* pinned member configuration: the fleet
    advances one system per seed of :data:`FLEET_SEEDS` on one
    :class:`FleetEngine`; the per-job reference runs one member at a
    time through the scalar fast path exactly as a ``run_grid`` pool
    worker would.  The figure of merit is aggregate machine-ticks per
    wall-clock second — the rate at which a sweep burns down simulated
    work per process.  The per-job rate is that of the fastest checked
    member.

    Correctness is asserted, not assumed: the first, middle, and last
    fleet members' ``scalar_summary()`` dicts must be byte-identical to
    fresh scalar runs of the same seeds.
    """
    from repro.fleet import FleetEngine
    from repro.system import System

    scenario = scenario if scenario is not None else FLEET_SCENARIO
    seeds = list(FLEET_SEEDS)

    def member(seed: int):
        return parse_scenario(dict(scenario.scenario, seed=seed))

    first = member(seeds[0])
    duration = duration_s if duration_s is not None else first.duration_s

    def _build(seed: int) -> System:
        parsed = member(seed)
        return System(parsed.config, parsed.workload, policy=parsed.policy)

    # -- fleet side: all machines on one engine -----------------------------
    engine = FleetEngine([_build(seed) for seed in seeds])
    start = time.perf_counter()
    engine.run_for(duration)
    fleet_wall = time.perf_counter() - start
    results = engine.results(duration)
    ticks = int(round(duration * 1000.0)) // first.config.tick_ms
    machine_ticks = ticks * len(seeds)

    # -- per-job reference: one member per run, scalar fast path ------------
    check_idx = sorted({0, len(seeds) // 2, len(seeds) - 1})
    per_job_walls = []
    reference: dict[int, dict[str, float]] = {}
    for idx in check_idx:
        parsed = member(seeds[idx])
        start = time.perf_counter()
        result = run_simulation(
            parsed.config, parsed.workload, policy=parsed.policy,
            duration_s=duration, fast_path=True,
        )
        per_job_walls.append(time.perf_counter() - start)
        reference[idx] = result.scalar_summary()
    per_job_wall = min(per_job_walls)

    members_identical = all(
        _encode(results[idx].scalar_summary()) == _encode(reference[idx])
        for idx in check_idx
    )
    fleet_rate = machine_ticks / fleet_wall
    per_job_rate = ticks / per_job_wall
    return {
        "name": scenario.name,
        "description": scenario.description,
        "policy": canonical_policy_value(first.policy),
        "duration_s": duration,
        "n_machines": len(seeds),
        "seeds": [seeds[0], seeds[-1]],
        "ticks_per_machine": ticks,
        "machine_ticks": machine_ticks,
        "checked_members": check_idx,
        "members_identical": members_identical,
        "checked_summaries": {
            str(seeds[idx]): reference[idx] for idx in check_idx
        },
        "timing": {
            "fleet_wall_s": fleet_wall,
            "fleet_machine_ticks_per_s": fleet_rate,
            "per_job_best_wall_s": per_job_wall,
            "per_job_ticks_per_s": per_job_rate,
            "speedup_vs_per_job": fleet_rate / per_job_rate,
        },
    }


def run_benchmarks(
    scenarios: Iterable[PinnedScenario] | None = None,
    duration_s: float | None = None,
) -> dict:
    """Run the benchmark set; return the ``BENCH_perf.json`` payload.

    ``duration_s`` overrides every scenario's pinned duration (useful
    for quick local runs; the pinned values are what CI publishes).
    """
    chosen: Sequence[PinnedScenario] = (
        tuple(scenarios) if scenarios is not None else REFERENCE_SCENARIOS
    )
    if not chosen:
        raise ValueError("no scenarios to benchmark")
    results = [run_scenario(s, duration_s) for s in chosen]
    headline = next(
        (r for r in results if r.name == HEADLINE_SCENARIO), results[0]
    )
    headline_scenario = next(
        (s for s in chosen if s.name == headline.name), chosen[0]
    )
    return {
        "schema": SCHEMA,
        "all_summaries_identical": all(r.summary_identical for r in results),
        "self_profile": profile_scenario(headline_scenario, duration_s),
        "fleet": run_fleet_benchmark(duration_s=duration_s),
        "headline": {
            "name": headline.name,
            "timing": {
                "fast_ticks_per_s": headline.fast_ticks_per_s,
                "scalar_ticks_per_s": headline.scalar_ticks_per_s,
                "speedup_vs_scalar": headline.speedup,
            },
        },
        "scenarios": [
            {
                "name": r.name,
                "description": r.description,
                "policy": r.policy,
                "duration_s": r.duration_s,
                "ticks": r.ticks,
                "summary_identical": r.summary_identical,
                "scalar_summary": r.scalar_summary,
                "timing": {
                    "fast_wall_s": r.fast_wall_s,
                    "scalar_wall_s": r.scalar_wall_s,
                    "fast_ticks_per_s": r.fast_ticks_per_s,
                    "scalar_ticks_per_s": r.scalar_ticks_per_s,
                    "speedup_vs_scalar": r.speedup,
                },
            }
            for r in results
        ],
    }


def strip_timings(payload: dict) -> dict:
    """The deterministic subset of a benchmark payload.

    Everything except the ``timing`` sub-objects must be identical
    between two runs of the same scenario set on any machine.
    """
    out = {
        "schema": payload["schema"],
        "all_summaries_identical": payload["all_summaries_identical"],
        "headline": {"name": payload["headline"]["name"]},
        "scenarios": [
            {k: v for k, v in scenario.items() if k != "timing"}
            for scenario in payload["scenarios"]
        ],
    }
    if "fleet" in payload:
        out["fleet"] = {
            k: v for k, v in payload["fleet"].items() if k != "timing"
        }
    return out


def write_bench_json(payload: dict, path: str = "BENCH_perf.json") -> str:
    """Write the payload; returns the path written."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_bench_report(payload: dict) -> str:
    """Human-readable table of one benchmark payload."""
    lines = [
        f"{'scenario':<22} {'ticks':>7} {'fast t/s':>10} {'scalar t/s':>11} "
        f"{'speedup':>8}  identical",
    ]
    for s in payload["scenarios"]:
        t = s["timing"]
        lines.append(
            f"{s['name']:<22} {s['ticks']:>7} {t['fast_ticks_per_s']:>10.0f} "
            f"{t['scalar_ticks_per_s']:>11.0f} "
            f"{t['speedup_vs_scalar']:>7.2f}x  "
            f"{'yes' if s['summary_identical'] else 'NO — MISMATCH'}"
        )
    h = payload["headline"]
    lines.append(
        f"headline ({h['name']}): "
        f"{h['timing']['fast_ticks_per_s']:.0f} ticks/s, "
        f"{h['timing']['speedup_vs_scalar']:.2f}x vs scalar"
    )
    fleet = payload.get("fleet")
    if fleet:
        t = fleet["timing"]
        lines.append(
            f"fleet ({fleet['name']}): {fleet['n_machines']} machines, "
            f"{t['fleet_machine_ticks_per_s']:.0f} machine-ticks/s "
            f"({t['speedup_vs_per_job']:.2f}x vs per-job fast path), "
            f"members identical: "
            f"{'yes' if fleet['members_identical'] else 'NO — MISMATCH'}"
        )
    profile = payload.get("self_profile")
    if profile:
        lines.append(
            f"self-profile ({profile['name']}, "
            f"{profile['duration_s']:g}s simulated):"
        )
        for path in ("fast", "scalar"):
            phases = profile[path]["phases"]
            ranked = sorted(
                phases.items(), key=lambda kv: kv[1]["total_s"], reverse=True
            )
            parts = ", ".join(
                f"{name} {entry['fraction']:.0%}" for name, entry in ranked[:4]
            )
            lines.append(f"  {path:<6} {parts}")
    return "\n".join(lines)
