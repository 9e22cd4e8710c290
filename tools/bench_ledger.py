#!/usr/bin/env python3
"""The performance ledger: perfbench results over commits.

Usage (from the root of a checkout)::

    python3 tools/bench_ledger.py record [--seconds S] [--ledger PATH]
    python3 tools/bench_ledger.py compare [REF] [--ledger PATH]

``record`` runs the benchmark command of ``BENCHMARK.json``
(``perfbench/run.py``) for every workload it lists at seeds 1, 2 and 3,
plus one traced run (``--trace 1``) per workload at seed 1, and appends
one ``repro-history/2`` line to ``BENCH_history.jsonl``.  ``--seconds``
defaults to the benchmark's ``run_seconds``.  If a run fails or its
verdict is not ``"correct": true``, nothing is appended and the tool
exits 1.

``compare`` diffs the newest entry against the previous one, or against
``REF``: an offset (``2`` is two entries back) or a git revision prefix.
It refuses (exit 2) two entries measured by different benchmark files
or run lengths.  ``BENCHMARK.json`` holds the only regression rule: an
end-to-end metric whose median over the seeds is worse than the
reference median, in the metric's ``better`` direction, by more than its
``bound`` is REGRESSED, and the tool exits 1.  A metric whose reference
runs spread wider than the bound (interquartile range over median) is
"unresolved", unless every current run beats every reference run.  Last
come the per-layer metrics of the traced runs that moved most.

A ledger line holds each run's final JSON line verbatim, the speed
factors perfbench prints beside its corrected metrics, the git revision
with a flag for whether ``src/`` differs from it, and a digest of
``BENCHMARK.json`` and ``perfbench/``.  Lines of other schemas (the
``repro-history/1`` entries of the retired ``repro perf`` ledger) and a
torn last line are skipped.

This is a checkout tool: perfbench, ``BENCHMARK.json`` and git exist only
in a checkout, not in an installed ``repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_history.jsonl"
SCHEMA = "repro-history/2"
SEEDS = (1, 2, 3)
TRACE_SEED = 1
#: Per-layer metrics listed per workload by ``compare``.
TOP_MOVERS = 5

# perfbench prints "<name> <value> <unit> raw <raw>  speed factor <f>"
# for every host-time metric it corrects.
SPEED_FACTOR_LINE = re.compile(r"^(\S+)\s.*\sraw \S+\s+speed factor (\S+)$")


class LedgerError(Exception):
    """A run or a ledger entry cannot be recorded or compared."""


def load_benchmark(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def parse_output(stdout: str) -> tuple[str, dict[str, float]]:
    """A perfbench run's final JSON line and its speed factors."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise LedgerError("benchmark printed nothing")
    last = lines[-1]
    try:
        json.loads(last)
    except ValueError:
        raise LedgerError(f"benchmark's last line is not JSON: {last!r}")
    factors = {}
    for line in lines[:-1]:
        match = SPEED_FACTOR_LINE.match(line.strip())
        if match:
            factors[match.group(1)] = float(match.group(2))
    return last, factors


def benchmark_digest(root: Path) -> str:
    """SHA-256 over BENCHMARK.json and every file of perfbench/."""
    files = [root / "BENCHMARK.json"] + sorted(
        path for path in (root / "perfbench").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts)
    digest = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0"
                      .encode())
        digest.update(data)
    return digest.hexdigest()


def _git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise LedgerError(f"git {' '.join(args)} failed in {root}: "
                          f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def run_benchmark(root: Path, command: list[str], workload: str, seed: int,
                  seconds: float, trace: int) -> dict:
    """One perfbench run as a ledger record; raises on a failed run."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    label = f"{workload} seed {seed}" + (" traced" if trace else "")
    if proc.returncode != 0:
        raise LedgerError(f"{label}: {' '.join(argv)} exited "
                          f"{proc.returncode}")
    last, factors = parse_output(proc.stdout)
    if json.loads(last).get("correct") is not True:
        raise LedgerError(f"{label}: the benchmark reports wrong outputs: "
                          f"{last}")
    print(f"{label}: correct, {time.monotonic() - started:.0f} s",
          file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace,
            "speed_factors": factors, "last_line": last}


def record(root: Path, seconds: float | None = None) -> dict:
    """Run the benchmark at ``root``; returns the ledger entry."""
    bench = load_benchmark(root)
    seconds = float(seconds if seconds is not None else bench["run_seconds"])
    rev = _git(root, "rev-parse", "HEAD")
    src_dirty = bool(_git(root, "status", "--porcelain", "--", "src"))
    workloads = [w["name"] for w in bench["workloads"]]
    runs = [run_benchmark(root, bench["command"], w, seed, seconds, 0)
            for seed in SEEDS for w in workloads]
    runs += [run_benchmark(root, bench["command"], w, TRACE_SEED, seconds, 1)
             for w in workloads]
    return {"schema": SCHEMA, "t": time.time(), "rev": rev,
            "src_dirty": src_dirty, "digest": benchmark_digest(root),
            "seconds": seconds, "runs": runs}


def append_entry(entry: dict, ledger: Path) -> None:
    """Append one line and fsync it; a torn last line stays its own line."""
    line = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
    ledger.parent.mkdir(parents=True, exist_ok=True)
    with open(ledger, "a+b") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = "\n" + line
        fh.write(line.encode())
        fh.flush()
        os.fsync(fh.fileno())


def load_entries(ledger: Path) -> list[dict]:
    """The ledger's ``repro-history/2`` entries, oldest first."""
    entries = []
    try:
        raw = ledger.read_bytes()
    except FileNotFoundError:
        return entries
    for line in raw.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue  # a blank or torn line
        if isinstance(entry, dict) and entry.get("schema") == SCHEMA:
            entries.append(entry)
    return entries


def pick(entries: list[dict], ref: str | None) -> tuple[dict, dict]:
    """(current, reference): the newest entry and the one ``ref`` names."""
    if len(entries) < 2:
        raise LedgerError(f"need two {SCHEMA} entries to compare, the "
                          f"ledger has {len(entries)}")
    current, earlier = entries[-1], entries[:-1]
    if ref is None:
        return current, earlier[-1]
    if ref.isdigit():
        if not 1 <= int(ref) <= len(earlier):
            raise LedgerError(f"offset {ref} is out of range: the ledger "
                              f"has {len(entries)} entries")
        return current, earlier[-int(ref)]
    for entry in reversed(earlier):
        if entry["rev"].startswith(ref):
            return current, entry
    raise LedgerError(f"no earlier entry at a revision starting {ref!r}")


def metric_runs(entry: dict, workload: str, metric: str,
                trace: int = 0) -> list[float]:
    """The metric's value in each of the entry's runs of ``workload``."""
    return [json.loads(run["last_line"])["metrics"][metric]["value"]
            for run in entry["runs"]
            if run["workload"] == workload and run["trace"] == trace]


def median(entry: dict, workload: str, metric: str) -> float:
    return statistics.median(metric_runs(entry, workload, metric))


def verdicts(current: dict, reference: dict, bench: dict) -> list[dict]:
    """One row per workload x end-to-end metric, judged by its bound."""
    for key in ("digest", "seconds"):
        if current[key] != reference[key]:
            raise LedgerError(
                f"the entries differ in {key} ({reference[key]} -> "
                f"{current[key]}); they did not run the same benchmark")
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        for spec in bench["end_to_end"]:
            cur = metric_runs(current, workload, spec["name"])
            ref = metric_runs(reference, workload, spec["name"])
            cur_med, ref_med = statistics.median(cur), statistics.median(ref)
            q1, _, q3 = statistics.quantiles(ref, n=4, method="inclusive")
            sign = 1.0 if spec["better"] == "higher" else -1.0
            change = (cur_med - ref_med) / ref_med
            if -sign * change > spec["bound"]:
                verdict = "REGRESSED"
            elif ((q3 - q1) / ref_med > spec["bound"]
                  and not all(sign * c > sign * r for c in cur for r in ref)):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": spec["name"],
                         "reference": ref_med, "q1": q1, "q3": q3,
                         "current": cur_med, "change": change,
                         "verdict": verdict})
    return rows


def movers(current: dict, reference: dict, bench: dict) -> list[dict]:
    """Per workload, the traced per-layer metrics that moved most."""
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        moved = []
        for spec in bench["per_layer"]:
            (cur,) = metric_runs(current, workload, spec["name"], trace=1)
            (ref,) = metric_runs(reference, workload, spec["name"], trace=1)
            if cur == ref:
                continue
            change = (cur - ref) / abs(ref) if ref else math.copysign(
                math.inf, cur)
            worse = (change < 0) == (spec["better"] == "higher")
            moved.append({"workload": workload, "metric": spec["name"],
                          "reference": ref, "current": cur,
                          "change": change, "worse": worse})
        moved.sort(key=lambda row: abs(row["change"]), reverse=True)
        rows += moved[:TOP_MOVERS]
    return rows


def fmt(value: float) -> str:
    """A ledger number as the docs and reports print it."""
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.3g}"


def describe(entry: dict) -> str:
    when = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime(entry["t"]))
    dirty = " with src/ modified" if entry["src_dirty"] else ""
    return f"rev {entry['rev'][:12]}{dirty}, recorded {when}"


def report(current: dict, reference: dict, bench: dict) -> tuple[str, int]:
    """The compare report and the number of regressed metrics."""
    rows = verdicts(current, reference, bench)
    lines = [
        f"current:   {describe(current)}",
        f"reference: {describe(reference)}",
        f"benchmark digest {current['digest'][:12]}, seeds "
        f"{', '.join(map(str, SEEDS))} at {current['seconds']:g} s; medians "
        "over seeds, reference quartiles in parentheses",
        "",
        f"{'workload':<16} {'metric':<20} {'reference (q1-q3)':>28} "
        f"{'current':>10} {'change':>8}  verdict",
    ]
    for row in rows:
        quartiles = f"{fmt(row['reference'])} ({fmt(row['q1'])}-" \
                    f"{fmt(row['q3'])})"
        lines.append(
            f"{row['workload']:<16} {row['metric']:<20} {quartiles:>28} "
            f"{fmt(row['current']):>10} {row['change']:>+8.1%}  "
            f"{row['verdict']}")
    lines += ["", f"per-layer metrics that moved most (traced run, seed "
                  f"{TRACE_SEED}):"]
    moved = movers(current, reference, bench)
    if not moved:
        lines.append("none")
    for row in moved:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<32} "
            f"{fmt(row['reference']):>10} -> {fmt(row['current']):<10} "
            f"{row['change']:>+9.1%}  {'worse' if row['worse'] else 'better'}")
    regressed = sum(row["verdict"] == "REGRESSED" for row in rows)
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    lines += ["", f"{regressed} regressed, {unresolved} unresolved, "
                  f"{len(rows) - regressed - unresolved} ok"]
    return "\n".join(lines), regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ledger = argparse.ArgumentParser(add_help=False)
    ledger.add_argument("--ledger", type=Path, default=LEDGER, metavar="PATH",
                        help="ledger file (default: BENCH_history.jsonl at "
                             "the root of the checkout)")
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", parents=[ledger],
                         help="run the benchmark and append one entry")
    rec.add_argument("--seconds", type=float, default=None, metavar="S",
                     help="perfbench --seconds of every run (default: "
                          "run_seconds of BENCHMARK.json)")
    cmp = sub.add_parser("compare", parents=[ledger],
                         help="judge the newest entry against a reference")
    cmp.add_argument("ref", nargs="?", default=None, metavar="REF",
                     help="reference entry: an offset back from the newest "
                          "or a revision prefix (default: the previous "
                          "entry)")
    args = parser.parse_args(argv)
    if args.command == "record" and args.seconds is not None \
            and args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.command == "record":
            entry = record(ROOT, args.seconds)
            append_entry(entry, args.ledger)
            print(f"appended a {SCHEMA} entry for {describe(entry)} to "
                  f"{args.ledger}")
            return 0
        current, reference = pick(load_entries(args.ledger), args.ref)
        text, regressed = report(current, reference, load_benchmark())
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if args.command == "record" else 2
    print(text)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
