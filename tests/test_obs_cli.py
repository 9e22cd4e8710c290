"""The ``trace`` and ``explain`` subcommands and the shared ``--json``
report envelope.

Every machine-readable CLI output — ``validate``, ``trace``,
``explain`` — is wrapped in the same ``{"schema", "generated_by",
"payload"}`` envelope, asserted here for all three.
"""

import json

import pytest

from repro import __version__
from repro.cli import REPORT_SCHEMA, build_parser, main
from repro.obs import CHROME_TRACE_SCHEMA, METRICS_SCHEMA

FAST_SCENARIO = "mixed-8cpu-nosmt"


@pytest.fixture(scope="module")
def quick_file(tmp_path_factory):
    """A small scenario file: cheap, no migrations needed."""
    path = tmp_path_factory.mktemp("obs") / "quick.json"
    path.write_text(json.dumps({
        "machine": {"preset": "smp", "n_cpus": 2},
        "max_power_per_cpu_w": 60.0,
        "seed": 3,
        "workload": {"builder": "single_program", "program": "bitcnts",
                     "n": 2},
        "policy": "energy",
        "duration_s": 1.0,
    }))
    return str(path)


@pytest.fixture(scope="module")
def migrating_file(tmp_path_factory):
    """A seed-pinned scenario file known to migrate tasks."""
    path = tmp_path_factory.mktemp("obs") / "migrating.json"
    path.write_text(json.dumps({
        "machine": {"preset": "smp", "n_cpus": 4},
        "max_power_per_cpu_w": 45.0,
        "seed": 9,
        "workload": {"builder": "mixed_table2", "copies": 2},
        "policy": "energy",
        "duration_s": 30.0,
    }))
    return str(path)


def _envelope(capsys):
    envelope = json.loads(capsys.readouterr().out)
    assert set(envelope) == {"schema", "generated_by", "payload"}
    assert envelope["schema"] == REPORT_SCHEMA
    assert envelope["generated_by"] == f"repro {__version__}"
    return envelope["payload"]


class TestParser:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.scenario == "mixed-16cpu"
        assert args.format == "chrome"
        assert args.duration is None and args.file is None

    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.pid is None and args.site is None
        assert not args.accepted_only

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--format", "flamegraph"])


class TestEnvelopeOnAllSubcommands:
    def test_validate_json(self, capsys):
        code = main(["validate", "--scenario", FAST_SCENARIO,
                     "--duration", "1", "--skip-faults", "--json"])
        assert code == 0
        payload = _envelope(capsys)
        assert payload["schema"] == "repro-validate/2"

    def test_trace_json(self, quick_file, capsys):
        code = main(["trace", "--file", quick_file,
                     "--format", "metrics", "--json"])
        assert code == 0
        payload = _envelope(capsys)
        assert payload["format"] == "metrics"
        assert payload["export"]["schema"] == METRICS_SCHEMA

    def test_explain_json(self, quick_file, capsys):
        code = main(["explain", "--file", quick_file, "--json"])
        assert code == 0
        payload = _envelope(capsys)
        assert payload["records"] == sum(payload["sites"].values())


class TestTraceCommand:
    def test_chrome_output_is_valid_trace_json(self, migrating_file, capsys):
        code = main(["trace", "--file", migrating_file, "--format", "chrome"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["otherData"]["schema"] == CHROME_TRACE_SCHEMA
        assert payload["displayTimeUnit"] == "ms"
        assert isinstance(payload["traceEvents"], list)
        for event in payload["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
        flows = [e for e in payload["traceEvents"]
                 if e["ph"] == "s" and e.get("cat") == "migration"]
        assert flows  # the pinned scenario migrates

    def test_prometheus_output_is_text(self, quick_file, capsys):
        code = main(["trace", "--file", quick_file,
                     "--format", "prometheus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_jobs_completed_total counter" in out
        assert "repro_cpu_thermal_power_watts" in out

    def test_events_format_uses_event_schema(self, quick_file, capsys):
        code = main(["trace", "--file", quick_file, "--format", "events"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"]
        assert all(e["schema"] == 1 for e in payload["events"])

    def test_output_writes_file_not_stdout(self, quick_file, tmp_path,
                                           capsys):
        target = tmp_path / "trace.json"
        code = main(["trace", "--file", quick_file, "--format", "chrome",
                     "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert str(target) in captured.err
        assert json.loads(target.read_text())["traceEvents"]

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "--scenario", "nope"])
        assert "nope" in capsys.readouterr().err

    def test_bad_file_rejected(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit):
            main(["trace", "--file", str(missing)])


class TestExplainCommand:
    def test_summary_mode_lists_sites(self, quick_file, capsys):
        code = main(["explain", "--file", quick_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "audit records" in out
        assert "placement" in out

    def test_pid_returns_every_migration(self, migrating_file, capsys):
        """Acceptance: ``explain --pid`` returns the audit record for
        every migration of that task."""
        code = main(["explain", "--file", migrating_file,
                     "--site", "migration", "--json"])
        assert code == 0
        all_migrations = _envelope(capsys)["records"]
        assert all_migrations
        by_pid = {}
        for record in all_migrations:
            by_pid.setdefault(record["pid"], []).append(record)
        for pid, expected in by_pid.items():
            code = main(["explain", "--file", migrating_file,
                         "--pid", str(pid), "--json"])
            assert code == 0
            payload = _envelope(capsys)
            assert payload["pid"] == pid
            got = [r for r in payload["records"]
                   if r["site"] == "migration"]
            assert got == expected

    def test_accepted_only_filters(self, migrating_file, capsys):
        code = main(["explain", "--file", migrating_file,
                     "--site", "energy_balance", "--accepted-only",
                     "--json"])
        assert code == 0
        payload = _envelope(capsys)
        assert all(r["accepted"] for r in payload["records"])

    def test_human_output_mentions_matches(self, quick_file, capsys):
        code = main(["explain", "--file", quick_file,
                     "--site", "placement"])
        assert code == 0
        captured = capsys.readouterr()
        assert "record(s) matched" in captured.err
        assert "placement" in captured.out

    def test_unknown_site_rejected(self, quick_file, capsys):
        with pytest.raises(SystemExit):
            main(["explain", "--file", quick_file, "--site", "karma"])
        assert "karma" in capsys.readouterr().err


@pytest.fixture(scope="module")
def baseline_file(tmp_path_factory):
    """The baseline policy has no audited decision sites: the canonical
    zero-record case for ``explain``."""
    path = tmp_path_factory.mktemp("obs") / "baseline.json"
    path.write_text(json.dumps({
        "machine": {"preset": "smp", "n_cpus": 2},
        "max_power_per_cpu_w": 60.0,
        "seed": 3,
        "workload": {"builder": "single_program", "program": "bitcnts",
                     "n": 2},
        "policy": "baseline",
        "duration_s": 1.0,
    }))
    return str(path)


class TestZeroRecordExits:
    """``explain``/``trace`` must exit cleanly — helpful message, no
    traceback — when a run yields nothing to report (ISSUE 9
    satellite)."""

    def test_explain_summary_zero_records(self, baseline_file, capsys):
        code = main(["explain", "--file", baseline_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 audit records" in out
        assert "no scheduler decisions fired" in out
        assert "Traceback" not in out

    def test_explain_summary_zero_records_json(self, baseline_file, capsys):
        code = main(["explain", "--file", baseline_file, "--json"])
        assert code == 0
        payload = _envelope(capsys)
        assert payload["records"] == 0
        assert payload["sites"] == {}

    def test_explain_filtered_zero_records(self, baseline_file, capsys):
        code = main(["explain", "--file", baseline_file,
                     "--site", "migration"])
        assert code == 0
        captured = capsys.readouterr()
        assert "0 record(s) matched" in captured.err

    def test_explain_filter_miss_hints_at_summary(self, quick_file,
                                                  capsys):
        """Records exist but the filter matches none: point the user at
        the summary mode instead of printing nothing."""
        code = main(["explain", "--file", quick_file,
                     "--site", "migration"])
        assert code == 0
        captured = capsys.readouterr()
        assert "0 record(s) matched" in captured.err
        assert "hint:" in captured.err

    def test_explain_filter_miss_hint_repeats_the_run(self, quick_file,
                                                      capsys):
        """The hint names the file and duration that ran, not the
        default pinned scenario."""
        import shlex

        code = main(["explain", "--file", quick_file, "--duration", "0.5",
                     "--site", "migration"])
        assert code == 0
        hint = capsys.readouterr().err.splitlines()[-1]
        assert hint.startswith("hint:")
        assert (f"'repro explain --file {shlex.quote(quick_file)} "
                f"--duration 0.5'") in hint

    def test_trace_zero_events_notes_and_exports_empty(
            self, quick_file, capsys, monkeypatch):
        """Zero trace events stays a valid (empty) export plus a stderr
        note, not a crash.  No parseable scenario produces an empty
        stream naturally, so stub the tracer."""
        import types

        from repro.api import SimulationResult

        monkeypatch.setattr(
            SimulationResult, "tracer",
            property(lambda self: types.SimpleNamespace(events=[])))
        code = main(["trace", "--file", quick_file, "--format", "events"])
        captured = capsys.readouterr()
        assert code == 0
        assert "recorded no trace events" in captured.err
        assert json.loads(captured.out)["events"] == []

    def test_trace_unavailable_export_is_clean_error(
            self, quick_file, capsys, monkeypatch):
        from repro.api import SimulationResult

        def unavailable(self):
            raise ValueError("no metrics: run with obs=True to record them")

        monkeypatch.setattr(SimulationResult, "metrics_snapshot",
                            unavailable)
        code = main(["trace", "--file", quick_file, "--format", "metrics"])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot export metrics telemetry" in captured.err
        assert "Traceback" not in captured.err
