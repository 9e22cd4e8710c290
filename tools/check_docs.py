#!/usr/bin/env python3
"""Check the docs against the code and the committed benchmark numbers.

Seven classes of drift have bitten this repo or would, and each is a
build failure instead of a review comment:

1. **Stale performance claims.** Every headline number the docs cite
   (ticks/s, speedups, the real-time factor) must match the committed
   ``BENCH_perf.json``, under the docs' own rounding convention:
   ticks/s to the nearest 100 (nearest 1,000 for the fleet aggregate,
   which is two orders of magnitude larger), speedups to one decimal.
   Regenerate the docs' numbers after ``python -m repro perf``.

2. **A stale ledger baseline.** The "Ledger baseline" table of
   ``docs/performance.md`` must cite the revision of the newest
   ``repro-history/2`` entry of ``BENCH_history.jsonl`` and, per
   workload, its medians of the four throughput and wall-time metrics,
   rounded as ``tools/bench_ledger.py`` prints them.  Update the table
   after ``python3 tools/bench_ledger.py record``.

3. **Undocumented subsystems.** Every subpackage of ``src/repro/``
   must be mentioned by name (``repro.<pkg>``) in
   ``docs/architecture.md`` — the architecture doc is the map, and a
   subsystem missing from the map is invisible to new readers.

4. **Stale tournament leaderboards.** The policy table in
   ``docs/policies.md`` (rank, mean energy to one decimal kJ, jobs/min
   to two decimals, throttle %, frequency scale, wins) must match the
   committed ``BENCH_policies.json``. Regenerate the table after
   ``python -m repro tournament``.

5. **Stale scenario-family catalogs.** Every family registered in
   ``repro.scenarios`` must appear in ``docs/scenarios.md``'s family
   table, with its fleet-eligibility documented consistently.

6. **Undocumented run events.** Every event kind the telemetry bus
   can carry (``repro.obs.events.EVENT_KINDS``) must appear in the
   kind catalog of ``docs/live_telemetry.md``, and the doc must not
   list kinds the bus no longer knows.

7. **Stale paper-vs-measured numbers.** The "ours" numbers EXPERIMENTS.md
   cites for Table 3 (average throttling and both throughput gains),
   Figures 8 and 10 and the Figures 6/7 migration counts must equal the
   committed ``benchmarks/results/`` files at one decimal.  Update the
   doc after ``pytest benchmarks``.

Run: python tools/check_docs.py   (exit 1 on any drift)
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "BENCH_perf.json"
BENCH_POLICIES = REPO / "BENCH_policies.json"
LEDGER_METRICS = ("machine_ticks_per_s", "cold_jobs_per_s",
                  "warm_jobs_per_s", "wall_s")
PERF_DOC = REPO / "docs" / "performance.md"
ARCH_DOC = REPO / "docs" / "architecture.md"
POLICIES_DOC = REPO / "docs" / "policies.md"
SCENARIOS_DOC = REPO / "docs" / "scenarios.md"
TELEMETRY_DOC = REPO / "docs" / "live_telemetry.md"
EXPERIMENTS_DOC = REPO / "EXPERIMENTS.md"
RESULTS_DIR = REPO / "benchmarks" / "results"

errors: list[str] = []


def _fmt(value: float, nearest: int) -> str:
    return f"{round(value / nearest) * nearest:,.0f}"


def _expect(doc: Path, text: str, pattern: str, label: str,
            expected: str) -> None:
    match = re.search(pattern, text)
    if not match:
        errors.append(f"{doc.name}: no line matching {label!r} "
                      f"(pattern {pattern!r})")
        return
    cited = match.group(1)
    if cited != expected:
        errors.append(f"{doc.name}: {label} cites {cited!r} but "
                      f"BENCH_perf.json says {expected!r}")


def check_perf_numbers() -> None:
    bench = json.loads(BENCH.read_text())
    headline = bench["headline"]["timing"]
    fleet = bench["fleet"]["timing"]
    perf_text = PERF_DOC.read_text()
    arch_text = ARCH_DOC.read_text()

    _expect(PERF_DOC, perf_text,
            r"\| scalar reference path \| ~([\d,]+) ticks/s",
            "scalar reference ticks/s",
            _fmt(headline["scalar_ticks_per_s"], 100))
    _expect(PERF_DOC, perf_text,
            r"\| batched fast path \| ~([\d,]+) ticks/s",
            "batched fast path ticks/s",
            _fmt(headline["fast_ticks_per_s"], 100))
    _expect(PERF_DOC, perf_text,
            r"\| batched fast path \|[^|]*~(\d+\.\d)x vs scalar",
            "fast-path speedup",
            f"{headline['speedup_vs_scalar']:.1f}")
    _expect(PERF_DOC, perf_text,
            r"\| fleet engine[^|]*\| ~([\d,]+) machine-ticks/s",
            "fleet aggregate machine-ticks/s",
            _fmt(fleet["fleet_machine_ticks_per_s"], 1000))
    _expect(PERF_DOC, perf_text,
            r"\| fleet engine[^|]*\|[^|]*~(\d+\.\d)x vs per-job",
            "fleet speedup",
            f"{fleet['speedup_vs_per_job']:.1f}")

    # architecture.md cites the real-time factor of the headline
    # scenario: ticks/s x 10 ms per tick / 1000 ms.
    _expect(ARCH_DOC, arch_text,
            r"~(\d+)x real time",
            "real-time factor",
            str(round(headline["fast_ticks_per_s"] / 100)))
    _expect(ARCH_DOC, arch_text,
            r"~\d+x real time \(~([\d,]+) ticks/s\)",
            "architecture ticks/s",
            _fmt(headline["fast_ticks_per_s"], 100))


def check_ledger_numbers() -> None:
    import bench_ledger  # beside this file

    entries = bench_ledger.load_entries(bench_ledger.LEDGER)
    if not entries:
        errors.append(f"{bench_ledger.LEDGER.name}: no "
                      f"{bench_ledger.SCHEMA} entry to cite")
        return
    entry = entries[-1]
    text = PERF_DOC.read_text()
    heading = "### Ledger baseline"
    if heading not in text:
        errors.append(f"{PERF_DOC.name}: no {heading!r} section")
        return
    section = text[text.index(heading):]
    cited = re.search(r"rev `([0-9a-f]{7,40})`", section)
    if cited is None or not entry["rev"].startswith(cited.group(1)):
        errors.append(f"{PERF_DOC.name}: the ledger baseline must cite rev "
                      f"`{entry['rev'][:7]}`, the newest ledger entry's")
    for workload in bench_ledger.load_benchmark()["workloads"]:
        cells = [bench_ledger.fmt(bench_ledger.median(
            entry, workload["name"], metric)) for metric in LEDGER_METRICS]
        row = f"| {workload['name']} | {' | '.join(cells)} |"
        if row not in section:
            errors.append(f"{PERF_DOC.name}: ledger baseline row for "
                          f"{workload['name']!r} missing or stale — expected "
                          f"{row!r}")


def check_policy_numbers() -> None:
    bench = json.loads(BENCH_POLICIES.read_text())
    doc_text = POLICIES_DOC.read_text()
    for row in bench["leaderboard"]:
        expected = (
            f"| {row['rank']} | {row['policy']} "
            f"| {row['mean_energy_j'] / 1000.0:.1f} "
            f"| {row['mean_jobs_per_min']:.2f} "
            f"| {row['mean_throttle_fraction'] * 100.0:.1f} "
            f"| {row['mean_frequency_scale']:.3f} "
            f"| {row['wins']} |"
        )
        if expected not in doc_text:
            errors.append(
                f"{POLICIES_DOC.name}: leaderboard row for "
                f"{row['policy']!r} missing or stale — expected "
                f"{expected!r} (regenerate after 'python -m repro "
                "tournament')"
            )
    # The doc must not list policies the payload doesn't know.
    doc_rows = re.findall(r"^\| \d+ \| ([a-z-]+) \|", doc_text, re.M)
    known = {row["policy"] for row in bench["leaderboard"]}
    for name in doc_rows:
        if name not in known:
            errors.append(
                f"{POLICIES_DOC.name}: leaderboard lists {name!r}, which "
                "BENCH_policies.json does not rank"
            )


def check_subpackage_coverage() -> None:
    arch_text = ARCH_DOC.read_text()
    pkg_root = REPO / "src" / "repro"
    subpackages = sorted(
        p.name for p in pkg_root.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    )
    for name in subpackages:
        if f"repro.{name}" not in arch_text:
            errors.append(
                f"architecture.md: subpackage `repro.{name}` is never "
                "mentioned — add it to the subsystem map"
            )


def check_scenario_families() -> None:
    sys.path.insert(0, str(REPO / "src"))
    from repro.scenarios import family_by_name, family_names

    doc_text = SCENARIOS_DOC.read_text()
    table_rows = re.findall(r"^\| `([a-z-]+)` \|.*\| (yes|no)",
                            doc_text, re.M)
    documented = dict(table_rows)
    for name in family_names():
        family = family_by_name(name)
        if name not in documented:
            errors.append(
                f"{SCENARIOS_DOC.name}: registered family {name!r} is "
                "missing from the family table"
            )
            continue
        eligible = documented[name] == "yes"
        if eligible != family.fleet_eligible:
            errors.append(
                f"{SCENARIOS_DOC.name}: family {name!r} documented as "
                f"fleet-eligible={eligible} but the registry says "
                f"{family.fleet_eligible}"
            )
    for name in documented:
        if name not in family_names():
            errors.append(
                f"{SCENARIOS_DOC.name}: family table lists {name!r}, "
                "which is not registered in repro.scenarios"
            )


def check_event_kinds() -> None:
    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.events import EVENT_KINDS

    doc_text = TELEMETRY_DOC.read_text()
    documented = re.findall(r"^\| `([a-z_]+)` \|", doc_text, re.M)
    for kind in EVENT_KINDS:
        if kind not in documented:
            errors.append(
                f"{TELEMETRY_DOC.name}: event kind {kind!r} is missing "
                "from the kind catalog table"
            )
    for kind in documented:
        if kind not in EVENT_KINDS:
            errors.append(
                f"{TELEMETRY_DOC.name}: kind catalog lists {kind!r}, "
                "which repro.obs.events.EVENT_KINDS does not define"
            )


def _cited(text: str, pattern: str, label: str) -> list[str]:
    """The numbers ``pattern``'s groups capture in ``text``, or none."""
    match = re.search(pattern, text, re.M)
    if match is None:
        errors.append(f"{EXPERIMENTS_DOC.name}: no line matching {label!r} "
                      f"(pattern {pattern!r})")
        return []
    return [cell.replace("**", "").replace("%", "").replace("−", "-")
            .strip() for cell in match.groups()]


def _measured(name: str, pattern: str) -> list[str]:
    """Every number ``pattern``'s groups capture in a results file."""
    text = (RESULTS_DIR / f"{name}.txt").read_text()
    return [cell for match in re.finditer(pattern, text, re.M)
            for cell in match.groups()]


def _section(text: str, heading: str) -> str:
    start = text.find(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return "" if start == -1 else text[start:end if end != -1 else None]


def check_experiment_numbers() -> None:
    text = EXPERIMENTS_DOC.read_text()
    sign = r"([+−-][\d.]+)"
    migrations = r"^ *migrations \| +(\d+) \| +(\d+) \|"
    checks = [
        ("Figures 6/7 migrations (SMT off)",
         _cited(text, r"^\| migrations / 15 min \(SMT off, 18 tasks\) \|"
                r"[^|]*\| (\d+) → (\d+) \|", "SMT-off migrations"),
         _measured("fig6-7", migrations)),
        ("Figures 6/7 migrations (SMT on)",
         _cited(text, r"^\| migrations / 15 min \(SMT on, 36 tasks\) +\|"
                r"[^|]*\| (\d+) → (\d+) \|", "SMT-on migrations"),
         _measured("fig7-smt", migrations)),
        ("Table 3 average throttling",
         _cited(text, r"^\| average \(16\) \|[^|]*\| ([\d.]+) → ([\d.]+) % \|",
                "Table 3 average row"),
         _measured("table3", r"^average \(all 16\) \| +([\d.]+)% \| +([\d.]+)%")),
        ("Table 3 and short-task throughput gains",
         _cited(text, f"^ours {sign} % and {sign} %", "Table 3 gains"),
         _measured("table3", r"^throughput increase: ([+-][\d.]+)%")
         + _measured("short-tasks", r"^throughput gain \| +- \| ([+-][\d.]+)%")),
        ("Figure 8 'ours' row",
         _cited(_section(text, "Figure 8"), r"^\| ours +\|" + r"([^|]+)\|" * 10,
                "Figure 8 ours row"),
         _measured("fig8", r"^ +\d+/\d+/\d+ \| +([+-][\d.]+)%$")),
        ("Figure 10 'ours' row",
         _cited(_section(text, "Figure 10"), r"^\| ours +\|" + r"([^|]+)\|" * 7,
                "Figure 10 ours row"),
         _measured("fig10", r"^ *(?:\d+|1 task @ 50 W) \| +([+-][\d.]+)% \|")),
    ]
    for label, cited, measured in checks:
        if cited and cited != measured:
            errors.append(f"{EXPERIMENTS_DOC.name}: {label} cites {cited} "
                          f"but benchmarks/results/ says {measured}")


def main() -> int:
    check_perf_numbers()
    check_ledger_numbers()
    check_policy_numbers()
    check_subpackage_coverage()
    check_scenario_families()
    check_event_kinds()
    check_experiment_numbers()
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    print("docs are consistent with BENCH_perf.json, "
          "BENCH_history.jsonl, BENCH_policies.json, benchmarks/results/, "
          "repro.scenarios, repro.obs.events, and src/repro/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
