"""Repository benchmark: end-to-end and per-layer numbers for ``repro``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload throttled-cells --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn and prints each one's
table; its last line then keys every metric as ``<workload>/<metric>``.

``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the
separate traced run and prints every per-layer metric.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Host times are reported at a pinned nominal
host speed (see ``refkernel.py``); the raw time and the speed factor are
printed beside each corrected number.  ``README.md`` describes the
workloads and metrics.

This script imports nothing from the program.  It starts fresh
interpreters running ``child.py``: a discarded warm-up, four set-up-only
runs and the workload run, whose set-up is the fifth ``setup_s`` sample.
Everything they write goes under ``.bench_build/`` in the checkout; the
per-run directory is deleted at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("throttled-cells", "fleet-poisson", "sweep-rerun")

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def child_timeout(seconds: float) -> float:
    """Limit on one child, so a hung run fails instead of hanging.  A
    workload child runs units for ``seconds``, at least two, then checks
    and (traced) profiles; the limit leaves room for a program several
    times slower than today's, which is then reported, not killed."""
    return 120.0 + 4.0 * seconds

# Bytecode of the benchmark's own modules also stays out of the tree.
sys.pycache_prefix = str(BUILD / "pycache")
sys.path.insert(0, str(HERE))
import refkernel  # noqa: E402  (imports nothing from the program)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(run_dir: pathlib.Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        PYTHONHASHSEED="0",
        # Bytecode goes under .bench_build, never into the source tree.
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        # Anything that would fall back to the default cache lands here.
        REPRO_CACHE_DIR=str(run_dir / "default-cache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(mode: str, args, run_dir: pathlib.Path,
              tag: str) -> tuple[dict, float]:
    """Start one child; returns its JSON output and its spawn time."""
    out = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--run-dir", str(run_dir),
           "--out", str(out)]
    timeout = child_timeout(args.seconds)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=run_dir, env=child_env(run_dir),
                              timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(out.read_text()), spawned


def setup_seconds(result: dict, spawned: float) -> tuple[float, float]:
    """(corrected, raw) seconds from spawn to the first timed window."""
    raw = result["ready_monotonic"] - spawned
    return raw * refkernel.speed_factor(result["kernel"]), raw


def median_of(units: list[dict], fn) -> float:
    return statistics.median(fn(u) for u in units)


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> list[tuple]:
    """(name, unit, corrected value, raw value) of every end-to-end metric."""
    units = result["units"]
    attempted, failed = result["attempted"], result["failed"]

    ticks = (median_of(units, lambda u: u["machine_ticks"] / u["cold_s"]),
             median_of(units, lambda u: u["machine_ticks"] / u["cold_raw_s"]))
    cold = (median_of(units, lambda u: u["jobs"] / u["cold_s"]),
            median_of(units, lambda u: u["jobs"] / u["cold_raw_s"]))
    warm = (median_of(units, lambda u: u["warm_rate"]),
            median_of(units, lambda u: u["warm_rate_raw"]))
    wall = (median_of(units, lambda u: u["cold_s"] + u["warm_s"]),
            median_of(units, lambda u: u["cold_raw_s"] + u["warm_raw_s"]))
    setup = (statistics.median(s[0] for s in setups),
             statistics.median(s[1] for s in setups))
    ok = (attempted - failed) / attempted
    return [
        ("machine_ticks_per_s", "1/s", *ticks),
        ("cold_jobs_per_s", "1/s", *cold),
        ("warm_jobs_per_s", "1/s", *warm),
        ("wall_s", "s", *wall),
        ("setup_s", "s", *setup),
        ("max_rss_mb", "MB", result["max_rss_mb"], None),
        ("ok_frac", "ratio", ok, None),
    ]


def bench(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}; run from "
                         "the root of a repository checkout")
    run_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # Warm-up: compiles bytecode on a fresh checkout and fills the page
        # cache, so the measured set-ups all start from the same state.
        run_child("setup", args, run_dir, "warmup")
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            setups.append(setup_seconds(*run_child("setup", args, run_dir,
                                                   f"setup-{i}")))
        mode = "trace" if args.trace else "timed"
        result, spawned = run_child(mode, args, run_dir, mode)
        setups.append(setup_seconds(result, spawned))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return report(args, result, setups)


def report(args, result: dict, setups: list) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    metrics = {}
    if args.trace:
        for name, (value, unit) in result["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<36} {value:>14.6g} {unit}")
    else:
        for name, unit, value, raw in end_to_end(result, setups):
            metrics[name] = {"value": value, "unit": unit}
            if raw is None:
                print(f"{name:<22} {value:>12.6g} {unit}")
            else:
                factor = value / raw if unit == "s" else raw / value
                print(f"{name:<22} {value:>12.6g} {unit:<5} "
                      f"raw {raw:.6g}  speed factor {factor:.4f}")
    units = f"{len(result['units'])} timed units"
    if args.trace:
        units = (f"{len(result['units'])} untraced and "
                 f"{len(result['traced_units'])} traced units")
    print(f"{args.workload}: {units}, {attempted} jobs checked, "
          f"{failed} failed or wrong")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True,
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # On SIGTERM unwind normally, so subprocess.run kills and reaps the
    # running child and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = bench(argparse.Namespace(**{**vars(args),
                                                        "workload": name}))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
