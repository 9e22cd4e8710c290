"""One workload process of the benchmark; ``run.py`` starts it.

Every run of a workload is a fresh interpreter running this file.  It
sets up (imports, code salt, input generation), then runs *units* --
one fixed-size piece of the workload each -- until its time is used,
checks every output, and writes one JSON document to ``--out``.

Modes:

``setup``  set up, sample the reference kernel, stop (``setup_s`` only);
``timed``  set up, run timed units, check outputs;
``trace``  set up, alternate untraced and traced units, write the
           per-layer table (see ``tracing.py``);
``pin``    run one unit and report the digests to pin in ``digests.json``.

The program only ever sees the job specs built here from ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import pathlib
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
INPUTS = json.loads((HERE / "inputs.json").read_text())
DEFAULT_SEED = INPUTS["default_seed"]
#: Where ``--mode trace`` leaves its spans; kept after the run.
TRACES = HERE.parent / ".bench_build" / "traces"
#: The digest of a job that failed instead of returning a result.
FAILED = "failed"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_program() -> float:
    """Import every module a workload touches; returns the seconds taken."""
    start = perf_counter()
    import numpy  # noqa: F401

    import repro.analysis.export  # noqa: F401
    import repro.analysis.report  # noqa: F401
    import repro.analysis.stats  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.resilience  # noqa: F401
    import repro.runner  # noqa: F401
    import repro.scenario  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.system  # noqa: F401
    return perf_counter() - start


@dataclass
class Unit:
    """What one unit of a workload did and how long it took."""

    cold: object                      # refkernel.Timing
    warm: list                        # refkernel.Timing per warm window
    jobs: int                         # jobs computed in the cold window
    machine_ticks: int                # simulated machine-ticks in it
    warm_jobs: int                    # job results served in the warm windows
    job_digests: list[str]
    aggregate: str
    wrong_warm: set[int] = field(default_factory=set)  # jobs a warm pass got wrong
    reports: list = field(default_factory=list)
    journal_path: pathlib.Path | None = None


def scalar_digests(report) -> list[str]:
    return [
        digest(canonical(o.result["scalars"])) if o.ok else FAILED
        for o in report.outcomes
    ]


def differing(got: list[str], want: list[str]) -> set[int]:
    """Jobs that failed in ``got`` or whose digest is not ``want``'s."""
    return {i for i, (g, w) in enumerate(zip(got, want)) if g == FAILED or g != w}


def scenario_data(spec) -> dict:
    """``spec``'s scenario with its overrides, duration and seed merged
    in, as ``execute_spec`` merges them before parsing."""
    data = dict(spec.scenario)
    data.update(spec.overrides)
    if spec.duration_s is not None:
        data["duration_s"] = spec.duration_s
    if spec.seed is not None:
        data["seed"] = spec.seed
    return data


def aggregate_text(report, title: str) -> str:
    from repro.analysis.report import format_scalar_summaries
    from repro.analysis.stats import summarize_scalars

    samples = report.scalar_samples()
    if not samples:
        return ""
    return format_scalar_summaries(summarize_scalars(samples), title=title)


#: The warm passes of a unit are timed as this many equal windows, and
#: ``warm_jobs_per_s`` is their median: file reads and JSON decoding
#: follow the reference kernel less closely than simulation does, and a
#: median drops the windows a burst of host noise mis-corrected.
WARM_WINDOWS = 10


def warm_windows(clock, passes: int, run_pass, wrong) -> tuple[list, set[int]]:
    """Time ``passes`` calls of ``run_pass`` in :data:`WARM_WINDOWS`
    windows; ``wrong(result)`` gives the jobs a pass got wrong, checked
    with the clock paused.  Returns the timings and those jobs."""
    if passes % WARM_WINDOWS:
        raise ValueError(f"warm passes must be a multiple of {WARM_WINDOWS}")
    bad: set[int] = set()
    timings = []
    for start in range(0, passes, passes // WARM_WINDOWS):
        clock.open()
        for p in range(start, start + passes // WARM_WINDOWS):
            result = run_pass(p)
            with clock.paused():
                bad |= wrong(result)
        timings.append(clock.close())
    return timings, bad


def wrong_jobs(expected: list[str]):
    """A ``wrong`` for warm grid passes: jobs that differ from ``expected``."""
    return lambda report: differing(scalar_digests(report), expected)


class Workload:
    """Common shape: pinned inputs, seeded specs, one unit at a time."""

    name = ""

    def __init__(self, seed: int, run_dir: pathlib.Path) -> None:
        self.cfg = INPUTS[self.name]
        self.seed = seed
        self.run_dir = run_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.specs = self.make_specs()

    @functools.cached_property
    def ticks_per_job(self) -> list[int]:
        """Simulated ticks of each job.  It parses every spec, so a unit
        first reads it after its timed windows, never during set-up."""
        from repro.scenario import parse_scenario
        from repro.sim.clock import Clock

        ticks = []
        for spec in self.specs:
            scenario = parse_scenario(scenario_data(spec))
            clock = Clock(scenario.config.tick_ms)
            ticks.append(clock.ticks_for_ms(scenario.duration_s * 1000.0))
        return ticks

    def make_specs(self) -> list:
        raise NotImplementedError

    def unit(self, clock, k: int, run_fn) -> Unit:
        raise NotImplementedError

    def reference_specs(self) -> list[tuple[int, object]]:
        """(index, spec) pairs re-run on another path at non-default seeds:
        by default a sample of jobs on the scalar reference path."""
        from repro.runner import JobSpec

        out = []
        for i in self._reference_picks():
            spec = self.specs[i]
            data = dict(spec.scenario, options={"fast_path": False})
            out.append((i, JobSpec(scenario=data, seed=spec.seed,
                                   duration_s=spec.duration_s)))
        return out

    def _reference_picks(self) -> list[int]:
        return sorted(self.rng.sample(range(len(self.specs)),
                                      self.cfg["reference_sample"]))

    def _seeds(self, count: int) -> list[int]:
        base = self.rng.randrange(1, 1_000_000)
        return list(range(base, base + count))


class ThrottledCells(Workload):
    """24 throttled/adversarial tournament cells through one ``run_grid``."""

    name = "throttled-cells"

    def make_specs(self) -> list:
        from repro.runner import JobSpec

        specs = []
        for config in self.cfg["configs"]:
            data = json.loads(json.dumps(config))
            target = data["generator"] if "generator" in data else data
            target["seed"] = self.rng.randrange(1, 1_000_000)
            for policy in self.cfg["policies"]:
                cell = dict(data, policy=policy)
                specs.append(JobSpec(scenario=cell,
                                     duration_s=self.cfg["duration_s"]))
        return specs

    def unit(self, clock, k: int, run_fn) -> Unit:
        from repro.runner import ResultCache, run_grid

        cache = ResultCache(root=self.run_dir / f"cache-{k}")
        clock.open()
        report = run_grid(self.specs, workers=1, cache=cache, run_fn=run_fn)
        aggregate = aggregate_text(report, f"{self.name}: {len(self.specs)} cells")
        cold = clock.close()
        digests = scalar_digests(report)
        passes = self.cfg["warm_passes"]
        warm, wrong = warm_windows(
            clock, passes,
            lambda _p: run_grid(self.specs, workers=1, cache=cache,
                                run_fn=run_fn),
            wrong_jobs(digests),
        )
        return Unit(
            cold=cold, warm=warm, jobs=len(self.specs),
            machine_ticks=sum(self.ticks_per_job),
            warm_jobs=len(self.specs) * passes,
            job_digests=digests, aggregate=aggregate,
            wrong_warm=wrong, reports=[report],
        )


class FleetPoisson(Workload):
    """One 64-member ``FleetEngine`` batch of poisson seeds via ``run_grid_fleet``."""

    name = "fleet-poisson"

    def make_specs(self) -> list:
        from repro.runner import JobSpec

        data = {"generator": {"family": self.cfg["family"]}}
        return [
            JobSpec(scenario=data, seed=s, duration_s=self.cfg["duration_s"])
            for s in self._seeds(self.cfg["members"])
        ]

    def unit(self, clock, k: int, run_fn) -> Unit:
        from repro.runner import ResultCache, run_grid_fleet

        cache = ResultCache(root=self.run_dir / f"cache-{k}")
        clock.open()
        report = run_grid_fleet(self.specs, workers=1, cache=cache)
        aggregate = aggregate_text(
            report, f"{self.cfg['family']}: {len(self.specs)} seeds, mean ± 95% CI"
        )
        cold = clock.close()
        digests = scalar_digests(report)
        passes = self.cfg["warm_passes"]
        warm, wrong = warm_windows(
            clock, passes,
            lambda _p: run_grid_fleet(self.specs, workers=1, cache=cache),
            wrong_jobs(digests),
        )
        stats = report.fleet_stats
        fleet_ticks = stats.machine_ticks if stats is not None else 0
        fleet_members = stats.members if stats is not None else 0
        # Members the fleet refused ran on the pool path, one job each.
        pool_ticks = (sum(self.ticks_per_job)
                      - fleet_members * self.ticks_per_job[0])
        return Unit(
            cold=cold, warm=warm, jobs=len(self.specs),
            machine_ticks=fleet_ticks + pool_ticks,
            warm_jobs=len(self.specs) * passes,
            job_digests=digests, aggregate=aggregate,
            wrong_warm=wrong, reports=[report],
        )

    def reference_specs(self) -> list[tuple[int, object]]:
        # Standalone on the pool path: the job alone, not in a fleet.
        return [(i, self.specs[i]) for i in self._reference_picks()]


class SweepRerun(Workload):
    """A cold journaled sporadic sweep, then warm cache and resume passes."""

    name = "sweep-rerun"

    def make_specs(self) -> list:
        from repro.runner import JobSpec, parse_seeds

        seeds = self._seeds(self.cfg["jobs"])
        self.seeds_text = f"{seeds[0]}..{seeds[-1]}"
        self.duration_text = repr(float(self.cfg["duration_s"]))
        # Exactly the specs `repro sweep --family F --seeds A..B --duration D`
        # builds, so the warm passes through the command hit the cache.
        data = {"generator": {"family": self.cfg["family"]}}
        return [
            JobSpec(scenario=data, seed=s, duration_s=float(self.cfg["duration_s"]))
            for s in parse_seeds(self.seeds_text)
        ]

    def _title(self) -> str:
        return f"{self.cfg['family']}: {len(self.specs)} seeds, mean ± 95% CI"

    def unit(self, clock, k: int, run_fn) -> Unit:
        import repro.cli
        from repro.resilience import SweepJournal
        from repro.runner import ResultCache, run_grid

        cache_dir = self.run_dir / f"cache-{k}"
        journal_path = self.run_dir / f"journal-{k}.jsonl"
        cache = ResultCache(root=cache_dir)
        clock.open()
        journal = SweepJournal(
            journal_path, self.specs, command="sweep",
            command_args={"experiment": self.cfg["family"],
                          "seeds": self.seeds_text,
                          "duration": float(self.cfg["duration_s"])},
        )
        try:
            report = run_grid(self.specs, workers=1, cache=cache,
                              journal=journal, run_fn=run_fn)
        finally:
            journal.close()
        aggregate = aggregate_text(report, self._title())
        cold = clock.close()
        sweep_argv = ["sweep", "--family", self.cfg["family"],
                      "--seeds", self.seeds_text,
                      "--duration", self.duration_text,
                      "--cache-dir", str(cache_dir)]
        resume_argv = ["sweep", "--resume", str(journal_path), "--no-cache"]

        def command(p: int) -> tuple[int, str]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = repro.cli.main(resume_argv if p % 2 else sweep_argv)
            return code, out.getvalue()

        # A pass prints one table: a wrong table fails every job in it.
        expected = (0, aggregate + "\n")
        passes = self.cfg["warm_passes"]
        warm, wrong = warm_windows(
            clock, passes, command,
            lambda printed: (set() if printed == expected
                             else set(range(len(self.specs)))),
        )
        return Unit(
            cold=cold, warm=warm, jobs=len(self.specs),
            machine_ticks=sum(self.ticks_per_job),
            warm_jobs=len(self.specs) * passes,
            job_digests=scalar_digests(report), aggregate=aggregate,
            wrong_warm=wrong, reports=[report], journal_path=journal_path,
        )


WORKLOADS = {w.name: w for w in (ThrottledCells, FleetPoisson, SweepRerun)}


def setup(name: str, seed: int, run_dir: pathlib.Path) -> tuple:
    import_s = import_program()
    from repro.runner import code_salt

    start = perf_counter()
    code_salt()
    salt_s = perf_counter() - start
    workload = WORKLOADS[name](seed, run_dir)
    return workload, import_s, salt_s


# -- checks ---------------------------------------------------------------
def check_units(workload: Workload, units: list[Unit]) -> set[int]:
    """The jobs of the workload that failed or came out wrong anywhere:
    in a unit's cold or warm windows, against the digests pinned at the
    default seed, or against a reference re-run at any other seed.

    ``ok_frac`` counts each job once, whatever number of times a unit
    ran it or served it from the cache, so one wrong job moves it by
    1/jobs -- more than its bound on every workload."""
    everyone = set(range(len(workload.specs)))
    first = units[0]
    if workload.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "digests.json").read_text())[workload.name]
        want_jobs, want_aggregate = pinned["jobs"], pinned["aggregate"]
    else:
        # Same inputs, same process: every unit must reproduce the first.
        want_jobs, want_aggregate = first.job_digests, digest(first.aggregate)
    bad: set[int] = set()
    for u in units:
        bad |= u.wrong_warm | differing(u.job_digests, want_jobs)
        if digest(u.aggregate) != want_aggregate:
            bad |= everyone
    if workload.seed != DEFAULT_SEED:
        bad |= reference_failures(workload, first.job_digests)
    return bad


def reference_failures(workload: Workload, digests: list[str]) -> set[int]:
    """Sampled jobs whose re-run on another path differs from ``digests``."""
    from repro.runner import execute_spec

    bad = set()
    for i, spec in workload.reference_specs():
        try:
            result = execute_spec(spec)
        except Exception as exc:  # a crash is a failed job, not a crash
            print(f"reference job {i} failed: {exc!r}", file=sys.stderr)
            bad.add(i)
            continue
        if digest(canonical(result["scalars"])) != digests[i]:
            print(f"reference job {i} differs from the benchmark run",
                  file=sys.stderr)
            bad.add(i)
    return bad


# -- modes ----------------------------------------------------------------
def run_units(workload, clock, seconds: float, run_fn,
              tracer=None) -> tuple[list[Unit], list[Unit]]:
    """Units until ``seconds`` are used, at least two so that every run
    compares one unit with another; with a tracer, alternate untraced
    and traced units.  Returns (untraced, traced)."""
    plain: list[Unit] = []
    traced: list[Unit] = []
    start = perf_counter()
    durations: list[float] = []
    k = 0
    while True:
        elapsed = perf_counter() - start
        count = len(plain) + len(traced)
        if count >= 2 and (
            elapsed + (statistics.median(durations) if durations else 0.0)
            > seconds
        ):
            break
        t0 = perf_counter()
        if tracer is not None and k % 2 == 1:
            with tracer.active(run_fn) as traced_fn:
                traced.append(workload.unit(clock, k, traced_fn))
        else:
            plain.append(workload.unit(clock, k, run_fn))
        durations.append(perf_counter() - t0)
        k += 1
    return plain, traced


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_row(u: Unit) -> dict:
    per_window = u.warm_jobs / len(u.warm)
    return {
        "cold_raw_s": u.cold.raw_s,
        "cold_s": u.cold.corrected_s,
        "warm_raw_s": sum(t.raw_s for t in u.warm),
        "warm_s": sum(t.corrected_s for t in u.warm),
        "warm_rate_raw": statistics.median(per_window / t.raw_s
                                           for t in u.warm),
        "warm_rate": statistics.median(per_window / t.corrected_s
                                       for t in u.warm),
        "jobs": u.jobs,
        "machine_ticks": u.machine_ticks,
        "warm_jobs": u.warm_jobs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "trace", "pin"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    run_dir = pathlib.Path(args.run_dir)
    workload, import_s, salt_s = setup(args.workload, args.seed, run_dir)
    ready = time.monotonic()

    import refkernel

    # Host speed right after set-up, to correct this set-up's time.  The
    # first calls pay one-off costs (JSON and numpy warm-up): dropped.
    for _ in range(5):
        refkernel.kernel_once()
    out: dict = {"ready_monotonic": ready, "import_s": import_s,
                 "salt_s": salt_s,
                 "kernel": [refkernel.kernel_once() for _ in range(30)]}
    if args.mode == "setup":
        pathlib.Path(args.out).write_text(json.dumps(out))
        return 0

    from repro.runner import execute_spec

    clock = refkernel.SpeedClock()
    if args.mode == "pin":
        unit = workload.unit(clock, 0, execute_spec)
        out.update(jobs=unit.job_digests, aggregate=digest(unit.aggregate),
                   n_jobs=unit.jobs, machine_ticks=unit.machine_ticks,
                   failed=len(unit.wrong_warm) + unit.job_digests.count(FAILED))
        pathlib.Path(args.out).write_text(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
    clock.start()
    try:
        plain, traced = run_units(workload, clock, args.seconds, execute_spec,
                                  tracer=tracer)
    finally:
        clock.stop()
    rss = max_rss_mb()  # before the checks' reference runs
    units = plain + traced
    bad = check_units(workload, units)
    out.update(max_rss_mb=rss, units=[unit_row(u) for u in plain])
    if tracer is not None:
        import tracing

        phases = None
        if isinstance(workload, ThrottledCells):
            # Observers make a job fleet-ineligible, so only this workload
            # can show the tick-phase split.
            phases, profiled_bad = tracing.phase_fractions(
                workload, units[0].job_digests)
            bad |= profiled_bad
        layers = tracing.layer_table(workload, tracer, plain, traced,
                                     import_s, salt_s, phases)
        out.update(traced_units=[unit_row(u) for u in traced], layers=layers)
        tracer.write(TRACES / f"{args.workload}-seed{args.seed}.json", layers)
    out.update(attempted=len(workload.specs), failed=len(bad))
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
