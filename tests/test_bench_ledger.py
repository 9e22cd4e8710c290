"""The performance ledger tool (``tools/bench_ledger.py``).

``record`` runs a stub ``perfbench/run.py`` inside a throwaway git
checkout, so no benchmark actually runs; ``compare`` is driven with
schema-true ``repro-history/2`` entries judged by the repository's own
``BENCHMARK.json``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_ledger", REPO / "tools" / "bench_ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

BENCH = ledger.load_benchmark(REPO)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# A real `perfbench/run.py --workload sweep-rerun --seed 1 --seconds 1
# --trace 0` stdout.
CAPTURED = """\
machine_ticks_per_s         10756.8 1/s   raw 8937.6  speed factor 0.8309
cold_jobs_per_s             53.7842 1/s   raw 44.688  speed factor 0.8309
warm_jobs_per_s             4357.93 1/s   raw 4741.9  speed factor 1.0881
wall_s                      2.66687 s     raw 2.85346  speed factor 0.9346
setup_s                    0.272212 s     raw 0.244864  speed factor 1.1117
max_rss_mb                  43.2539 MB
ok_frac                           1 ratio
sweep-rerun: 2 timed units, 48 jobs checked, 0 failed or wrong
{"correct": true, "attempted": 48, "failed": 0, "metrics": {"machine_ticks_per_s": {"value": 10756.841886229708, "unit": "1/s"}, "cold_jobs_per_s": {"value": 53.78420943114854, "unit": "1/s"}, "warm_jobs_per_s": {"value": 4357.9306286568935, "unit": "1/s"}, "wall_s": {"value": 2.666867089139454, "unit": "s"}, "setup_s": {"value": 0.2722116630019188, "unit": "s"}, "max_rss_mb": {"value": 43.25390625, "unit": "MB"}, "ok_frac": {"value": 1.0, "unit": "ratio"}}}
"""


class TestParseOutput:
    def test_last_line_verbatim_and_speed_factors(self):
        last, factors = ledger.parse_output(CAPTURED)
        assert last == CAPTURED.splitlines()[-1]
        assert json.loads(last)["metrics"]["ok_frac"]["value"] == 1.0
        assert factors == {
            "machine_ticks_per_s": 0.8309,
            "cold_jobs_per_s": 0.8309,
            "warm_jobs_per_s": 1.0881,
            "wall_s": 0.9346,
            "setup_s": 1.1117,
        }

    def test_traced_output_has_no_speed_factors(self):
        traced = ("sim.engine.ticks                       51200 count\n"
                  '{"correct": true, "metrics": {}}\n')
        assert ledger.parse_output(traced) == (
            '{"correct": true, "metrics": {}}', {})

    def test_missing_verdict_refused(self):
        with pytest.raises(ledger.LedgerError, match="not JSON"):
            ledger.parse_output(CAPTURED.rsplit("\n", 2)[0])


# -- record -------------------------------------------------------------------

STUB = """\
import argparse, json, sys
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
wrong = {wrong_seed!r} == args.seed
print("machine_ticks_per_s  100 1/s   raw 90  speed factor 0.9000")
print(json.dumps({{"correct": not wrong, "argv": sys.argv[1:],
                  "metrics": {{"machine_ticks_per_s": {{"value": 100.0}}}}}}))
"""


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=root, check=True, capture_output=True)


def _checkout(root: Path, wrong_seed: str | None = None) -> Path:
    """A git checkout holding the tool, a stub benchmark and src/."""
    (root / "tools").mkdir(parents=True)
    shutil.copy(REPO / "tools" / "bench_ledger.py", root / "tools")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(
        STUB.format(wrong_seed=wrong_seed))
    (root / "src").mkdir()
    (root / "src" / "program.py").write_text("x = 1\n")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": 2,
        "workloads": [{"name": "alpha"}, {"name": "beta"}],
    }))
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "stub")
    return root


def _record(root: Path, ledger_path: Path, *argv: str):
    return subprocess.run(
        [sys.executable, str(root / "tools" / "bench_ledger.py"), "record",
         "--ledger", str(ledger_path), *argv],
        cwd=root, capture_output=True, text=True)


class TestHistoryEntry:
    def test_entry_shape(self, tmp_path):
        root = _checkout(tmp_path / "checkout")
        path = tmp_path / "ledger.jsonl"
        proc = _record(root, path)
        assert proc.returncode == 0, proc.stderr
        (line,) = path.read_text().splitlines()
        entry = json.loads(line)
        assert entry["schema"] == "repro-history/2"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True).stdout.strip()
        assert entry["rev"] == head and entry["src_dirty"] is False
        assert entry["digest"] == ledger.benchmark_digest(root)
        assert entry["seconds"] == 2.0  # run_seconds of BENCHMARK.json
        runs = {(r["workload"], r["seed"], r["trace"]): r
                for r in entry["runs"]}
        assert sorted(runs) == sorted(
            [(w, s, 0) for w in ("alpha", "beta") for s in (1, 2, 3)]
            + [("alpha", 1, 1), ("beta", 1, 1)])
        run = runs[("beta", 3, 0)]
        assert run["speed_factors"] == {"machine_ticks_per_s": 0.9}
        assert json.loads(run["last_line"])["argv"] == [
            "--workload", "beta", "--seed", "3", "--seconds", "2.0",
            "--trace", "0"]

    def test_src_changes_are_flagged(self, tmp_path):
        root = _checkout(tmp_path / "checkout")
        (root / "src" / "program.py").write_text("x = 2\n")
        path = tmp_path / "ledger.jsonl"
        assert _record(root, path, "--seconds", "1").returncode == 0
        entry = json.loads(path.read_text())
        assert entry["src_dirty"] is True and entry["seconds"] == 1.0

    def test_wrong_output_appends_nothing(self, tmp_path):
        root = _checkout(tmp_path / "checkout", wrong_seed="2")
        path = tmp_path / "ledger.jsonl"
        path.write_text("existing\n")
        proc = _record(root, path)
        assert proc.returncode == 1
        assert "wrong outputs" in proc.stderr
        assert path.read_text() == "existing\n"

    def test_digest_ignores_the_program(self, tmp_path):
        """Two entries are comparable when the benchmark is the same: a
        program change keeps the digest, a benchmark change breaks it."""
        root = _checkout(tmp_path / "checkout")
        before = ledger.benchmark_digest(root)
        (root / "src" / "program.py").write_text("x = 3\n")
        assert ledger.benchmark_digest(root) == before
        (root / "perfbench" / "inputs.json").write_text("{}")
        assert ledger.benchmark_digest(root) != before


# -- compare ------------------------------------------------------------------

BASE = {"machine_ticks_per_s": 10_000.0, "cold_jobs_per_s": 50.0,
        "warm_jobs_per_s": 4_000.0, "wall_s": 3.0, "setup_s": 0.28,
        "max_rss_mb": 60.0, "ok_frac": 1.0}
SPREAD = (0.99, 1.0, 1.01)


def _line(metrics: dict) -> str:
    return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {name: {"value": value, "unit": "x"}
                                   for name, value in metrics.items()}})


def _entry(scale=None, spread=SPREAD, layers=None, rev="a" * 40,
           digest="d" * 64, seconds=25.0) -> dict:
    """An entry whose runs read BASE x spread x ``scale[(workload,
    metric)]`` (``ok_frac`` stays 1); traced runs read 1.0 for every
    per-layer metric except ``layers``."""
    scale = scale or {}
    layers = layers or {}
    runs = []
    for seed, factor in zip(ledger.SEEDS, spread):
        for workload in WORKLOADS:
            metrics = {name: value * scale.get((workload, name), 1)
                       * (factor if name != "ok_frac" else 1)
                       for name, value in BASE.items()}
            runs.append({"workload": workload, "seed": seed, "trace": 0,
                         "speed_factors": {}, "last_line": _line(metrics)})
    for workload in WORKLOADS:
        metrics = {spec["name"]: layers.get((workload, spec["name"]), 1.0)
                   for spec in BENCH["per_layer"]}
        runs.append({"workload": workload, "seed": 1, "trace": 1,
                     "speed_factors": {}, "last_line": _line(metrics)})
    return {"schema": "repro-history/2", "t": 0.0, "rev": rev,
            "src_dirty": False, "digest": digest, "seconds": seconds,
            "runs": runs}


def _verdicts(current, reference):
    return {(row["workload"], row["metric"]): row["verdict"]
            for row in ledger.verdicts(current, reference, BENCH)}


def _write(path: Path, *entries) -> Path:
    for entry in entries:
        ledger.append_entry(entry, path)
    return path


class TestCompare:
    def test_detects_injected_slowdown(self):
        current = _entry({("sweep-rerun", "machine_ticks_per_s"): 0.75,
                          ("throttled-cells", "wall_s"): 1.25})
        verdicts = _verdicts(current, _entry())
        assert verdicts.pop(("sweep-rerun", "machine_ticks_per_s")) \
            == "REGRESSED"
        assert verdicts.pop(("throttled-cells", "wall_s")) == "REGRESSED"
        assert set(verdicts.values()) == {"ok"}

    def test_self_compare_is_clean(self):
        assert set(_verdicts(_entry(), _entry()).values()) == {"ok"}

    def test_change_within_bound_not_flagged(self):
        current = _entry({("sweep-rerun", "cold_jobs_per_s"): 0.9,
                          ("fleet-poisson", "wall_s"): 1.1})
        assert set(_verdicts(current, _entry()).values()) == {"ok"}

    def test_fleet_regression_flagged(self):
        current = _entry({("fleet-poisson", "machine_ticks_per_s"): 0.75})
        verdicts = _verdicts(current, _entry())
        assert [key for key, verdict in verdicts.items()
                if verdict != "ok"] == [
            ("fleet-poisson", "machine_ticks_per_s")]

    def test_improvements_are_never_regressions(self):
        current = _entry({("fleet-poisson", "machine_ticks_per_s"): 1.5,
                          ("throttled-cells", "wall_s"): 0.5})
        assert set(_verdicts(current, _entry()).values()) == {"ok"}

    def test_wide_reference_spread_is_unresolved(self):
        wide = (0.7, 1.0, 1.3)  # IQR 0.3 of the median, bound 0.2
        verdicts = _verdicts(_entry(), _entry(spread=wide))
        assert {verdict for (_, metric), verdict in verdicts.items()
                if metric != "ok_frac"} == {"unresolved"}
        # ... unless every current run beats every reference run.
        current = _entry(
            {(w, "machine_ticks_per_s"): 1.4 for w in WORKLOADS})
        verdicts = _verdicts(current, _entry(spread=wide))
        assert verdicts[("sweep-rerun", "machine_ticks_per_s")] == "ok"

    def test_different_benchmarks_refused(self):
        with pytest.raises(ledger.LedgerError, match="digest"):
            ledger.verdicts(_entry(), _entry(digest="e" * 64), BENCH)
        with pytest.raises(ledger.LedgerError, match="seconds"):
            ledger.verdicts(_entry(), _entry(seconds=1.0), BENCH)


class TestLayerMovers:
    def test_attributes_delta_to_slowed_layer(self):
        current = _entry(layers={("fleet-poisson", "system.build_s"): 10.0,
                                 ("fleet-poisson", "fleet.run_s"): 1.5,
                                 ("fleet-poisson", "sim.engine.ticks"): 2.0})
        rows = [row for row in ledger.movers(current, _entry(), BENCH)
                if row["workload"] == "fleet-poisson"]
        assert [row["metric"] for row in rows] == [
            "system.build_s", "sim.engine.ticks", "fleet.run_s"]
        assert rows[0]["change"] == pytest.approx(9.0)
        assert [row["worse"] for row in rows] == [True, False, True]

    def test_empty_when_nothing_moved(self):
        assert ledger.movers(_entry(), _entry(), BENCH) == []

    def test_formatted_report_names_the_layer(self):
        current = _entry({("sweep-rerun", "cold_jobs_per_s"): 0.5},
                         layers={("sweep-rerun", "system.build_s"): 10.0})
        text, regressed = ledger.report(current, _entry(), BENCH)
        assert regressed == 1
        (row,) = [line for line in text.splitlines()
                  if "system.build_s" in line]
        assert row.startswith("sweep-rerun") and row.endswith("worse")


class TestLedgerDurability:
    def test_append_load_round_trip(self, tmp_path):
        path = _write(tmp_path / "ledger.jsonl", _entry(rev="b" * 40),
                      _entry(rev="c" * 40))
        entries = ledger.load_entries(path)
        assert [e["rev"] for e in entries] == ["b" * 40, "c" * 40]
        assert entries[0] == _entry(rev="b" * 40)

    def test_torn_tail_skipped(self, tmp_path):
        path = _write(tmp_path / "ledger.jsonl", _entry(rev="b" * 40))
        with open(path, "a") as fh:
            fh.write('{"schema": "repro-history/2", "t": 1')
        assert [e["rev"] for e in ledger.load_entries(path)] == ["b" * 40]
        # A line appended after the torn one starts on its own line.
        _write(path, _entry(rev="c" * 40))
        assert [e["rev"] for e in ledger.load_entries(path)] == [
            "b" * 40, "c" * 40]

    def test_foreign_lines_ignored(self, tmp_path):
        v1 = (REPO / "BENCH_history.jsonl").read_text().splitlines()[0]
        assert json.loads(v1)["schema"] == "repro-history/1"
        path = tmp_path / "ledger.jsonl"
        path.write_text(v1 + "\n")
        _write(path, _entry(rev="b" * 40))
        assert [e["rev"] for e in ledger.load_entries(path)] == ["b" * 40]
        assert path.read_text().startswith(v1 + "\n")

    def test_missing_file_is_empty(self, tmp_path):
        assert ledger.load_entries(tmp_path / "none.jsonl") == []


class TestResolveReference:
    ENTRIES = [_entry(rev=f"{i}abc" + "0" * 36) for i in range(4)]

    def test_default_is_previous(self):
        current, reference = ledger.pick(self.ENTRIES, None)
        assert current is self.ENTRIES[-1]
        assert reference is self.ENTRIES[-2]

    def test_offset(self):
        assert ledger.pick(self.ENTRIES, "3")[1] is self.ENTRIES[0]

    def test_revision_prefix(self):
        assert ledger.pick(self.ENTRIES, "1abc")[1] is self.ENTRIES[1]

    def test_too_few_entries(self):
        with pytest.raises(ledger.LedgerError, match="need two"):
            ledger.pick(self.ENTRIES[:1], None)

    @pytest.mark.parametrize("ref", ["4", "0"])
    def test_out_of_range_offset(self, ref):
        with pytest.raises(ledger.LedgerError, match="out of range"):
            ledger.pick(self.ENTRIES, ref)

    @pytest.mark.parametrize("ref", ["feed", "3abc"])  # 3abc is current
    def test_unknown_revision(self, ref):
        with pytest.raises(ledger.LedgerError, match="no earlier entry"):
            ledger.pick(self.ENTRIES, ref)


class TestCompareCli:
    def test_cli_detects_injected_slowdown(self, tmp_path, capsys):
        slow = _entry({("sweep-rerun", "cold_jobs_per_s"): 0.5})
        path = _write(tmp_path / "ledger.jsonl", _entry(), slow)
        assert ledger.main(["compare", "--ledger", str(path)]) == 1
        out = capsys.readouterr().out
        (row,) = [line for line in out.splitlines()
                  if "REGRESSED" in line]
        assert row.startswith("sweep-rerun") and "cold_jobs_per_s" in row
        assert "1 regressed" in out

    def test_cli_self_compare_clean(self, tmp_path, capsys):
        path = _write(tmp_path / "ledger.jsonl", _entry(), _entry())
        assert ledger.main(["compare", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSED" not in out and "0 regressed" in out

    def test_cli_refuses_different_benchmarks(self, tmp_path, capsys):
        path = _write(tmp_path / "ledger.jsonl", _entry(digest="e" * 64),
                      _entry())
        assert ledger.main(["compare", "--ledger", str(path)]) == 2
        assert "did not run the same benchmark" in capsys.readouterr().err

    def test_cli_missing_ledger_clean_error(self, tmp_path, capsys):
        path = tmp_path / "none.jsonl"
        assert ledger.main(["compare", "--ledger", str(path)]) == 2
        err = capsys.readouterr().err
        assert "need two" in err and "Traceback" not in err
