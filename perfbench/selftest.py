"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Takes just over a minute.  It checks that seeds change outputs but not
the amount of work, that the reference kernel ignores the size of the
live heap, that one wrong pinned digest takes ``ok_frac`` past its bound,
that a run leaves the repository tree as it found it, and that the
benchmark fails cleanly without the program's source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest
from time import perf_counter

import run  # first: it keeps bytecode out of the tree
import refkernel  # noqa: E402

ROOT = run.ROOT
DEFAULT_SEED = json.loads((run.HERE / "inputs.json").read_text())["default_seed"]


def tree_snapshot() -> dict[str, str]:
    """Digest of every file of the checkout outside .git and .bench_build."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        if rel.split(os.sep)[0] in (".git", ".bench_build"):
            dirnames[:] = []
            continue
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                snap[os.path.relpath(path, ROOT)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return snap


def child_run(mode: str, workload: str, seed: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0)
    run_dir = run.BUILD / "runs" / f"selftest-{workload}-{seed}-{mode}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return run.run_child(mode, args, run_dir, mode)[0]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def copy_checkout(dest, with_source: bool) -> None:
    """A checkout at ``dest`` holding ``BENCHMARK.json``, the benchmark and,
    ``with_source``, the program's ``src/``."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(run.HERE, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def bench(cwd, workload: str, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class BenchmarkSelfTest(unittest.TestCase):

    def test_seeds_change_outputs_not_work(self):
        for workload in run.WORKLOADS:
            first = child_run("pin", workload, 1)
            second = child_run("pin", workload, 2)
            self.assertNotEqual(first["jobs"], second["jobs"], workload)
            self.assertNotEqual(first["aggregate"], second["aggregate"], workload)
            self.assertEqual(first["n_jobs"], second["n_jobs"], workload)
            self.assertEqual(first["machine_ticks"], second["machine_ticks"],
                             workload)
            self.assertEqual(first["failed"] + second["failed"], 0, workload)

    def test_kernel_ignores_live_heap(self):
        # Each kernel sample is divided by a loop that allocates no
        # containers, so the garbage collector never runs in it: the
        # ratio cancels the host's speed, which drifts between blocks.
        def control() -> float:
            start = perf_counter()
            acc = 0.0
            for i in range(30_000):
                acc += i * 0.5
            return perf_counter() - start

        def block() -> float:
            return refkernel.typical(
                [refkernel.kernel_once() / control() for _ in range(20)])

        empty, full = [], []
        for _ in range(6):
            empty.append(block())
            heap = [{"key": i, "items": [i, str(i)]} for i in range(300_000)]
            full.append(block())
            del heap
        ratio = statistics.median(full) / statistics.median(empty)
        self.assertLess(abs(ratio - 1.0), 0.1, (empty, full))

    def test_one_wrong_pinned_digest_breaks_ok_frac_bound(self):
        copy = run.BUILD / "selftest-tampered"
        copy_checkout(copy, with_source=True)
        digests = copy / "perfbench" / "digests.json"
        pinned = json.loads(digests.read_text())
        pinned["sweep-rerun"]["jobs"][0] = "0" * 16
        digests.write_text(json.dumps(pinned))
        try:
            proc = bench(copy, "sweep-rerun", DEFAULT_SEED)
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        bound = next(m["bound"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
            if m["name"] == "ok_frac")
        # The parent reads 1: worse by more than the bound is a rejection.
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0 - bound)

    def test_run_leaves_tree_unchanged(self):
        before = tree_snapshot()
        proc = bench(ROOT, "sweep-rerun", 3)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(json.loads(proc.stdout.splitlines()[-1])["correct"])
        self.assertEqual(before, tree_snapshot())
        self.assertEqual(list((run.BUILD / "runs").iterdir()), [])

    def test_fails_cleanly_without_program_source(self):
        bare = run.BUILD / "selftest-bare"
        copy_checkout(bare, with_source=False)
        try:
            proc = bench(bare, "sweep-rerun", DEFAULT_SEED)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
