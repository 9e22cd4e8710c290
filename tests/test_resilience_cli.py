"""CLI resilience: --journal/--resume sweeps, checkpointed run-file,
the resume subcommand, and a real SIGINT of the driver process."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.resilience import replay_journal

REPO_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

SCENARIO = {
    "machine": {"preset": "smp", "n_cpus": 4},
    "workload": {"builder": "mixed_table2", "copies": 1},
    "duration_s": 6,
    "seed": 5,
}


class TestSweepJournalCli:
    def test_journal_then_resume_is_byte_identical(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        argv = ["sweep", "fig9", "--seeds", "1..2", "--duration", "3",
                "--no-cache", "--journal", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert journal.exists()

        assert main(["sweep", "--resume", str(journal), "--no-cache"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "resumed" in second.err

    def test_bare_journal_flag_defaults_under_cache_dir(self, tmp_path,
                                                        capsys):
        argv = ["sweep", "fig9", "--seeds", "1", "--duration", "3",
                "--cache-dir", str(tmp_path), "--journal"]
        assert main(argv) == 0
        capsys.readouterr()
        journals = list((tmp_path / "journals").glob("sweep-*.jsonl"))
        assert len(journals) == 1
        replay = replay_journal(journals[0])
        assert len(replay.completed) == 1

    def test_sweep_without_experiment_or_resume_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--no-cache"])
        assert "experiment name" in capsys.readouterr().err

    def test_resume_of_missing_journal_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--resume", str(tmp_path / "nope.jsonl"),
                  "--no-cache"])
        assert "cannot resume" in capsys.readouterr().err

    def test_batch_resume_reuses_journal_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"jobs": [
            {"experiment": "fig9", "seeds": "1..2", "duration_s": 3,
             "label": "tour"},
        ]}))
        journal = tmp_path / "b.jsonl"
        assert main(["batch", str(grid), "--no-cache",
                     "--journal", str(journal)]) == 0
        first = capsys.readouterr()
        assert "tour: 2 jobs" in first.out
        # Resume without re-giving the grid path: the journal meta has it.
        assert main(["batch", "--resume", str(journal), "--no-cache"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out


class TestCheckpointCli:
    # Every policy spelling a scenario file accepts must checkpoint: a
    # registry name beyond the paper's two, and a parameterized spec.
    @pytest.mark.parametrize("policy", [
        "energy",
        "hlt-throttle",
        {"name": "dvfs-proactive", "params": {"target_margin_c": 3.0}},
    ], ids=["energy", "hlt-throttle", "dvfs-proactive-params"])
    def test_run_file_checkpoint_and_resume_subcommand(self, tmp_path,
                                                       capsys, policy):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(dict(SCENARIO, policy=policy)))
        ck = tmp_path / "ck.bin"
        assert main(["run-file", str(scen)]) == 0
        reference = capsys.readouterr().out

        assert main(["run-file", str(scen), "--checkpoint", str(ck),
                     "--checkpoint-every", "2"]) == 0
        checkpointed = capsys.readouterr()
        assert checkpointed.out == reference
        assert checkpointed.err.count("checkpoint:") == 3  # 2s, 4s, 6s

        assert main(["resume", str(ck)]) == 0
        assert capsys.readouterr().out == reference

    def test_resume_subcommand_reports_corrupt_checkpoint(self, tmp_path,
                                                          capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"{}\n")
        assert main(["resume", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestDriverSigint:
    def test_sigint_drains_journals_and_resumes(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        env = dict(os.environ, PYTHONPATH=REPO_SRC,
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        argv = [sys.executable, "-m", "repro", "sweep", "fig9",
                "--seeds", "1..6", "--duration", "120", "--workers", "2",
                "--no-cache", "--journal", str(journal)]
        proc = subprocess.Popen(argv, env=env, cwd=str(tmp_path),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if (journal.exists()
                        and '"kind":"start"' in journal.read_text()):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep never started a job")
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "interrupted" in stderr
        assert f"--resume {journal}" in stderr

        # The journal replays cleanly after the interrupt...
        replay = replay_journal(journal)
        assert replay.meta is not None
        assert len(replay.completed) < 6

        # ...and --resume finishes the sweep with zero recomputation of
        # the journaled-complete jobs.
        done_before = set(replay.completed)
        resume = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--resume",
             str(journal), "--no-cache"],
            env=env, cwd=str(tmp_path), capture_output=True, text=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        assert "6 seeds, mean" in resume.stdout
        after = replay_journal(journal)
        assert len(after.completed) == 6
        for spec_hash in done_before:
            # Completed jobs were served from the journal, not re-run:
            # no new start record for them after the interrupt.
            starts = sum(
                1 for line in journal.read_text().splitlines()
                if json.loads(line).get("kind") == "start"
                and json.loads(line).get("hash") == spec_hash
            )
            assert starts == 1
