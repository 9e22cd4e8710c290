"""Supervised executor failure paths and cache corruption handling.

The crashy run functions are module-level (picklable) and drive their
one-shot behaviour off sentinel files created with ``O_EXCL``, so the
first attempt and the retry see different worlds even across worker
processes.
"""

import json
import os
import pathlib
import time

import pytest

from repro.resilience import (
    ExecutorStats,
    SweepJournal,
    backoff_delay_s,
)
from repro.resilience.supervisor import QUARANTINE_SCHEMA
from repro.runner import JobSpec, ResultCache, run_grid


def _specs(tmp_path, n=5):
    return [
        JobSpec(scenario={"dir": str(tmp_path), "case": s}, seed=s)
        for s in range(n)
    ]


def _ok(spec):
    return {"scalars": {"value": float(spec.seed)}}


def _sentinel(spec, tag):
    return pathlib.Path(spec.scenario["dir"]) / f"{tag}-{spec.seed}"


def _claim_first(spec, tag):
    """True exactly once per (tag, seed), across processes."""
    try:
        fd = os.open(_sentinel(spec, tag), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _crash_once(spec):
    if spec.seed == 2 and _claim_first(spec, "crash"):
        os._exit(41)  # SIGKILL-equivalent: worker dies without cleanup
    return {"scalars": {"value": float(spec.seed)}}


def _crash_always(spec):
    if spec.seed == 2:
        os._exit(43)
    return {"scalars": {"value": float(spec.seed)}}


def _raise_once(spec):
    if _claim_first(spec, "raise"):
        raise RuntimeError("transient blip")
    return {"scalars": {"value": float(spec.seed)}}


def _hang_one(spec):
    if spec.seed == 2:
        time.sleep(120.0)
    return {"scalars": {"value": float(spec.seed)}}


class TestWorkerDeath:
    def test_crash_once_job_survives_via_pool_rebuild(self, tmp_path):
        specs = _specs(tmp_path)
        report = run_grid(specs, workers=3, run_fn=_crash_once, retries=1)
        assert all(o.ok for o in report.outcomes)
        assert [o.result["scalars"]["value"]
                for o in report.outcomes] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert report.exec_stats.worker_crashes >= 1
        assert report.exec_stats.pool_rebuilds >= 1

    def test_poison_job_quarantined_exactly_once(self, tmp_path):
        specs = _specs(tmp_path)
        qdir = tmp_path / "q"
        report = run_grid(specs, workers=3, run_fn=_crash_always,
                          retries=1, quarantine_dir=qdir)
        bad = [o for o in report.outcomes if not o.ok]
        assert len(bad) == 1
        assert bad[0].spec.seed == 2
        assert bad[0].quarantined
        assert "worker process died" in bad[0].error
        assert report.exec_stats.quarantined == 1
        # The spec is serialized for offline reproduction.
        spec_file = qdir / f"{specs[2].content_hash()}.spec.json"
        payload = json.loads(spec_file.read_text())
        assert payload["schema"] == QUARANTINE_SCHEMA
        assert payload["spec"] == specs[2].to_dict()
        assert payload["worker_kills"] >= 2
        # Victims of the shared pool break are exonerated and complete.
        assert all(o.ok for o in report.outcomes if o.spec.seed != 2)

    def test_queued_jobs_complete_after_pool_break(self, tmp_path):
        specs = _specs(tmp_path, n=12)
        report = run_grid(specs, workers=2, run_fn=_crash_once, retries=1)
        assert all(o.ok for o in report.outcomes)
        assert len(report.outcomes) == 12


class TestTimeouts:
    def test_timed_out_job_fails_permanently_others_finish(self, tmp_path):
        specs = _specs(tmp_path)
        report = run_grid(specs, workers=3, run_fn=_hang_one,
                          timeout_s=1.0, retries=2)
        bad = [o for o in report.outcomes if not o.ok]
        assert [o.spec.seed for o in bad] == [2]
        assert "timeout after 1s" in bad[0].error
        assert bad[0].attempts == 1  # deadline blowers are not retried
        assert report.exec_stats.timeouts == 1
        # The pool was rebuilt, so the survivors all completed.
        assert report.exec_stats.pool_rebuilds >= 1
        assert all(o.ok for o in report.outcomes if o.spec.seed != 2)


class TestRetries:
    def test_transient_exception_retried_in_pool(self, tmp_path):
        specs = _specs(tmp_path, n=4)
        report = run_grid(specs, workers=2, run_fn=_raise_once, retries=1)
        assert all(o.ok for o in report.outcomes)
        assert all(o.attempts == 2 for o in report.outcomes)
        assert report.exec_stats.retries == 4

    def test_transient_exception_retried_serially(self, tmp_path):
        specs = _specs(tmp_path, n=3)
        report = run_grid(specs, workers=1, run_fn=_raise_once, retries=1)
        assert all(o.ok and o.attempts == 2 for o in report.outcomes)

    def test_backoff_is_deterministic_capped_and_jittered(self):
        spec = JobSpec(experiment="fig9", seed=1)
        other = JobSpec(experiment="fig9", seed=2)
        delays = [backoff_delay_s(spec, a, base_s=0.1, cap_s=2.0)
                  for a in range(1, 8)]
        # Same spec, same attempt -> same delay (resume-stable).
        assert delays == [backoff_delay_s(spec, a, base_s=0.1, cap_s=2.0)
                          for a in range(1, 8)]
        # Jitter is seeded from the spec digest, so specs differ.
        assert delays[0] != backoff_delay_s(other, 1, base_s=0.1, cap_s=2.0)
        # Exponential envelope with jitter in [0.5, 1.5), capped.
        for attempt, delay in enumerate(delays, start=1):
            nominal = 0.1 * 2 ** (attempt - 1)
            assert delay <= min(2.0, nominal * 1.5)
            assert delay >= min(2.0, nominal * 0.5) * 0.999
        assert delays[-1] <= 2.0


class TestDrain:
    def test_stop_event_drains_and_marks_interrupted(self, tmp_path):
        import threading

        specs = _specs(tmp_path, n=6)
        stop = threading.Event()
        done = []

        def stop_after_two(spec):
            done.append(spec.seed)
            if len(done) >= 2:
                stop.set()
            return {"scalars": {"value": float(spec.seed)}}

        report = run_grid(specs, workers=1, run_fn=stop_after_two,
                          stop_event=stop)
        assert report.interrupted
        finished = [o for o in report.outcomes if o.ok]
        assert len(finished) == 2
        skipped = [o for o in report.outcomes if not o.ok]
        assert all(o.error == "interrupted before completion"
                   for o in skipped)

    def test_interrupted_sweep_resumes_from_journal(self, tmp_path):
        import threading

        specs = _specs(tmp_path, n=6)
        stop = threading.Event()
        seen = []

        def stop_after_two(spec):
            seen.append(spec.seed)
            if len(seen) >= 2:
                stop.set()
            return {"scalars": {"value": float(spec.seed)}}

        path = tmp_path / "j.jsonl"
        with SweepJournal(path, specs) as journal:
            first = run_grid(specs, workers=1, run_fn=stop_after_two,
                             journal=journal, stop_event=stop)
        assert first.interrupted
        calls = []

        def counting(spec):
            calls.append(spec.seed)
            return {"scalars": {"value": float(spec.seed)}}

        with SweepJournal(path, specs) as journal:
            second = run_grid(specs, workers=1, run_fn=counting,
                              journal=journal)
        assert not second.interrupted
        assert sorted(calls) == [2, 3, 4, 5]  # 0 and 1 came from the journal
        assert all(o.ok for o in second.outcomes)


class TestCacheCorruption:
    def test_garbage_bytes_entry_quarantined_and_recomputed(self, tmp_path):
        specs = _specs(tmp_path, n=2)
        cache = ResultCache(root=tmp_path / "cache")
        run_grid(specs, run_fn=_ok, cache=cache)
        entry = cache.path_for(specs[0])
        entry.write_bytes(b"\x00\xffnot json at all{{{")

        fresh = ResultCache(root=tmp_path / "cache")
        report = run_grid(specs, run_fn=_ok, cache=fresh)
        assert all(o.ok for o in report.outcomes)
        assert fresh.stats.corrupt == 1
        assert fresh.stats.hits == 1  # the untouched entry still serves
        assert "corrupt" in fresh.stats.describe()
        quarantined = tmp_path / "cache" / "quarantine" / entry.name
        assert quarantined.exists()
        # The recompute overwrote the bad entry with a good one.
        again = ResultCache(root=tmp_path / "cache")
        assert again.get(specs[0]) == {"scalars": {"value": 0.0}}

    def test_truncated_entry_is_corrupt(self, tmp_path):
        specs = _specs(tmp_path, n=1)
        cache = ResultCache(root=tmp_path / "cache")
        cache.put(specs[0], {"scalars": {"value": 0.0}})
        entry = cache.path_for(specs[0])
        entry.write_bytes(entry.read_bytes()[:20])  # torn mid-write
        fresh = ResultCache(root=tmp_path / "cache")
        assert fresh.get(specs[0]) is None
        assert fresh.stats.corrupt == 1

    def test_wrong_shape_result_is_corrupt_but_stale_salt_is_not(
            self, tmp_path):
        specs = _specs(tmp_path, n=2)
        cache = ResultCache(root=tmp_path / "cache")
        cache.put(specs[0], {"scalars": {}})
        entry = cache.path_for(specs[0])
        payload = json.loads(entry.read_text())
        payload["result"] = "not a dict"
        entry.write_text(json.dumps(payload))
        stale = cache.path_for(specs[1])
        stale.write_text(json.dumps(
            {"schema": 1, "salt": "older-code", "result": {"scalars": {}}}
        ))
        fresh = ResultCache(root=tmp_path / "cache")
        assert fresh.get(specs[0]) is None
        assert fresh.get(specs[1]) is None
        assert fresh.stats.corrupt == 1  # only the malformed one
        assert not (tmp_path / "cache" / "quarantine" / stale.name).exists()

    def test_clear_leaves_the_quarantine_folder(self, tmp_path):
        specs = _specs(tmp_path, n=1)
        cache = ResultCache(root=tmp_path / "cache")
        cache.put(specs[0], {"scalars": {}})
        cache.path_for(specs[0]).write_bytes(b"junk")
        assert cache.get(specs[0]) is None  # quarantines the entry
        removed = cache.clear()
        assert removed == 0  # nothing left outside quarantine/
        assert list((tmp_path / "cache" / "quarantine").iterdir())


class TestMetricsExport:
    def test_stats_describe_and_dict_round_trip(self):
        stats = ExecutorStats()
        assert stats.describe() == "no incidents"
        stats.retries = 1
        stats.quarantined = 2
        assert "1 retry" in stats.describe() or "retries" in stats.describe()
        assert stats.as_dict()["quarantined"] == 2
