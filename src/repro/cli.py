"""Command-line interface.

    python -m repro list
    python -m repro run fig9
    python -m repro run table3 --duration 600 --seed 42
    python -m repro run                 # all eight, one section each
    python -m repro sweep fig6-7 --seeds 1..10 --workers 4
    python -m repro batch grid.json --workers 4

``sweep`` and ``batch`` print deterministic results (per-seed scalars
and the mean ± CI aggregate) on stdout; progress, wall-clock, and cache
hit/miss accounting go to stderr, so redirected output is byte-stable
across worker counts and cache states.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import sys

from repro.experiments import REGISTRY, run_experiment

#: Version of the ``--json`` report envelope shared by ``validate``,
#: ``tournament``, ``trace``, and ``explain``.
REPORT_SCHEMA = 1

#: Default simulated duration for the telemetry commands (``trace`` /
#: ``explain``) when run against a pinned scenario — long enough for
#: decisions to fire, short enough for interactive use.
OBS_DEFAULT_DURATION_S = 60.0


def _print_json_report(payload) -> None:
    """Emit the shared ``--json`` envelope on stdout.

    Every subcommand's machine-readable output has the same top level —
    ``{"schema": N, "generated_by": "repro <version>", "payload": ...}``
    — so consumers can dispatch on one shape.
    """
    from repro import __version__

    print(json.dumps(
        {
            "schema": REPORT_SCHEMA,
            "generated_by": f"repro {__version__}",
            "payload": payload,
        },
        indent=2, sort_keys=True,
    ))


def _validate_duration(text: str) -> float | None:
    """``--duration`` for the validate matrix: ``short``, ``full``, or
    seconds.  ``full`` maps to ``None`` (each scenario's pinned
    duration)."""
    lowered = text.strip().lower()
    if lowered == "short":
        from repro.validate.runner import SHORT_DURATION_S

        return SHORT_DURATION_S
    if lowered == "full":
        return None
    return _positive_duration(text)


def _positive_duration(text: str) -> float:
    """Argparse type for ``--duration``: a finite, strictly positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid duration {text!r}: not a number"
        ) from None
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(
            f"invalid duration {text!r}: must be a positive number of seconds"
        )
    return value


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (1 = serial, the default)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache entirely")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default: $REPRO_CACHE_DIR "
                             "or .repro_cache)")
    parser.add_argument("--timeout", type=_positive_duration, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock timeout (parallel runs only)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="re-submissions after a job fails (default: 1)")
    parser.add_argument("--journal", nargs="?", const="auto", default=None,
                        metavar="PATH",
                        help="append every job start/finish to a crash-safe "
                             "journal so the sweep can be finished with "
                             "--resume after a crash or interrupt (PATH "
                             "omitted: <cache dir>/journals/<grid>.jsonl)")
    parser.add_argument("--resume", default=None, metavar="JOURNAL",
                        help="resume an interrupted sweep from its journal: "
                             "completed jobs are served from the journal "
                             "with zero recomputation, in-flight and failed "
                             "ones re-run")
    parser.add_argument("--engine", choices=("pool", "fleet"),
                        default="pool",
                        help="execution engine: 'pool' runs one job per "
                             "worker process; 'fleet' packs fleet-eligible "
                             "scenario jobs into vectorized batches that "
                             "advance N machines per tick (ineligible jobs "
                             "fall back to the pool; results are "
                             "byte-identical either way)")
    _add_telemetry_options(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    """Live-telemetry options shared by sweep/batch/tournament.

    Both are off by default and telemetry-only: deterministic outputs
    (stdout, cache entries, journals) are byte-identical either way.
    """
    parser.add_argument("--serve-metrics", nargs="?", const=0, type=int,
                        default=None, metavar="PORT", dest="serve_metrics",
                        help="serve live run telemetry over HTTP on "
                             "127.0.0.1 while the run executes (/metrics "
                             "Prometheus text, /snapshot JSON, /events; "
                             "PORT omitted: an ephemeral port, printed to "
                             "stderr; watch it with 'repro top')")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="append every run event to PATH as one JSON "
                             "line each (crash-safe: flushed and fsynced "
                             "per event)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Merkel & Bellosa, 'Balancing Power Consumption "
            "in Multiprocessor Systems' (EuroSys 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")

    run = sub.add_parser(
        "run", help="run experiments and print their reports (all if none "
                    "is named)"
    )
    run.add_argument("experiments", nargs="*", metavar="experiment",
                     help="experiment names (see 'list'); one prints its "
                          "report, none or several print a '===== name "
                          "=====' section each (none: every experiment)")
    run.add_argument("--duration", type=_positive_duration, default=None,
                     metavar="SECONDS",
                     help="simulated duration of each experiment "
                          "(default: its committed one)")
    run.add_argument("--seed", type=int, default=None,
                     help="root random seed of each experiment "
                          "(default: its committed one)")

    run_file = sub.add_parser(
        "run-file", help="run a JSON scenario file and print a summary"
    )
    run_file.add_argument("path", help="scenario JSON file (see repro.scenario)")
    run_file.add_argument("--validate", action="store_true",
                          help="run with the invariant checker enabled; "
                               "violations go to stderr and exit non-zero")
    run_file.add_argument("--checkpoint", default=None, metavar="PATH",
                          help="periodically write a resumable checkpoint "
                               "of the simulation to PATH (finish a killed "
                               "run with 'repro resume PATH')")
    run_file.add_argument("--checkpoint-every", type=_positive_duration,
                          default=60.0, metavar="SECONDS",
                          help="simulated seconds between checkpoints "
                               "(default: 60)")

    resume = sub.add_parser(
        "resume",
        help="finish a checkpointed simulation (see run-file --checkpoint)",
    )
    resume.add_argument("checkpoint", help="checkpoint file to load")
    resume.add_argument("--duration", type=_positive_duration, default=None,
                        metavar="SECONDS",
                        help="total planned duration (default: recorded in "
                             "the checkpoint)")
    resume.add_argument("--allow-stale", action="store_true",
                        help="load a checkpoint written by a different code "
                             "version (normally refused)")

    sweep = sub.add_parser(
        "sweep",
        help="replicate one experiment over a seed set, in parallel, "
             "with result caching",
    )
    sweep.add_argument("experiment", nargs="?", default=None,
                       help="experiment name (see 'list'); optional with "
                            "--resume, which rebuilds the grid from the "
                            "journal, or with --scenario")
    sweep.add_argument("--scenario", default=None, metavar="PATH",
                       help="sweep a scenario JSON file over the seed set "
                            "instead of a registry experiment (scenario "
                            "sweeps are what --engine fleet vectorizes)")
    sweep.add_argument("--family", default=None, metavar="NAME",
                       help="sweep a scenario generator family (see "
                            "'scenarios') over the seed set: each seed "
                            "generates its own instance via the "
                            "top-level scenario seed")
    sweep.add_argument("--family-params", default=None, metavar="JSON",
                       help="generator parameter overrides as a JSON "
                            "object (only with --family)")
    sweep.add_argument("--seeds", default="1..5", metavar="SET",
                       help="seed set: '1..10', '1,3,5', or one integer "
                            "(default: 1..5)")
    sweep.add_argument("--duration", type=_positive_duration, default=None,
                       metavar="SECONDS",
                       help="simulated duration per job (default: the "
                            "experiment's committed duration)")
    _add_runner_options(sweep)

    scenarios = sub.add_parser(
        "scenarios",
        help="list the scenario generator families, or instantiate one "
             "as scenario JSON",
    )
    scenarios.add_argument("family", nargs="?", default=None,
                           help="family to instantiate (default: print "
                                "the catalog)")
    scenarios.add_argument("--params", default=None, metavar="JSON",
                           help="parameter overrides as a JSON object")
    scenarios.add_argument("--seed", type=int, default=1, metavar="N",
                           help="generator seed (default: 1)")
    scenarios.add_argument("--digest", action="store_true",
                           help="print only the spec's canonical SHA-256 "
                                "digest")

    batch = sub.add_parser(
        "batch", help="run a JSON grid of experiments/scenarios × seeds"
    )
    batch.add_argument("path", nargs="?", default=None,
                       help="grid JSON file (see repro.runner.grid); "
                            "optional with --resume")
    _add_runner_options(batch)

    tournament = sub.add_parser(
        "tournament",
        help="race every scheduling policy across the pinned scenarios "
             "and write the BENCH_policies.json leaderboard",
    )
    tournament.add_argument("--scenario", action="append", default=None,
                            metavar="NAME", dest="scenarios",
                            help="race only this scenario (repeatable; "
                                 "default: the full pinned set)")
    tournament.add_argument("--policy", action="append", default=None,
                            metavar="NAME", dest="policies",
                            help="race only this policy (repeatable; "
                                 "default: every registered policy)")
    tournament.add_argument("--duration", type=_positive_duration,
                            default=None, metavar="SECONDS",
                            help="simulated seconds per cell (default: 60)")
    tournament.add_argument("--workers", type=int, default=1, metavar="N",
                            help="worker processes (1 = serial, the default)")
    tournament.add_argument("--no-cache", action="store_true",
                            help="bypass the on-disk result cache entirely")
    tournament.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="cache directory (default: $REPRO_CACHE_DIR "
                                 "or .repro_cache)")
    tournament.add_argument("--skip-oracle", action="store_true",
                            help="skip the scalar-reference differential "
                                 "oracle (faster, but no fast-path check)")
    tournament.add_argument("--output", default="BENCH_policies.json",
                            metavar="PATH",
                            help="result file (default: BENCH_policies.json)")
    _add_telemetry_options(tournament)
    tournament.add_argument("--json", action="store_true",
                            help="print the payload as JSON instead of a "
                                 "table")

    top = sub.add_parser(
        "top",
        help="show the live state of a run started with --serve-metrics",
    )
    top.add_argument("--port", type=int, default=None, metavar="PORT",
                     help="port of the live endpoint on 127.0.0.1")
    top.add_argument("--url", default=None, metavar="URL",
                     help="full endpoint URL (overrides --port)")
    top.add_argument("--watch", nargs="?", const=2.0,
                     type=_positive_duration, default=None,
                     metavar="SECONDS",
                     help="refresh every SECONDS (default 2) until "
                          "interrupted, instead of printing once")
    top.add_argument("--json", action="store_true",
                     help="print the raw /snapshot JSON instead of the "
                          "terminal view")

    validate = sub.add_parser(
        "validate",
        help="run the correctness matrix (invariants + differential "
             "oracle + fault injection) over the pinned scenarios",
    )
    validate.add_argument("--scenario", action="append", default=None,
                          metavar="NAME", dest="scenarios",
                          help="validate only this scenario (repeatable; "
                               "default: the full reference set)")
    validate.add_argument("--duration", type=_validate_duration,
                          default="short", metavar="SECONDS|short|full",
                          help="simulated seconds per run, or 'short' "
                               "(default) / 'full' (each scenario's pinned "
                               "duration)")
    validate.add_argument("--sample-every", type=int, default=1, metavar="N",
                          help="evaluate tick invariants every N ticks "
                               "(default: 1)")
    validate.add_argument("--skip-faults", action="store_true",
                          help="run invariants and oracle only, no fault "
                               "injection")
    validate.add_argument("--output", default=None, metavar="PATH",
                          help="also write the report payload as JSON "
                               "(the CI artifact)")
    validate.add_argument("--write-golden", default=None, metavar="DIR",
                          dest="write_golden",
                          help="regenerate the golden traces into DIR and "
                               "exit (documented home: tests/golden)")
    validate.add_argument("--json", action="store_true",
                          help="print the payload as JSON instead of a "
                               "report")

    trace = sub.add_parser(
        "trace",
        help="run a scenario with observability on and export its "
             "telemetry (Chrome trace, Prometheus text, metrics "
             "snapshot, or raw events)",
    )
    _add_obs_source_options(trace)
    trace.add_argument("--format", choices=("chrome", "prometheus",
                                            "metrics", "events"),
                       default="chrome",
                       help="export format (default: chrome — a "
                            "trace-event JSON loadable in Perfetto)")
    trace.add_argument("--output", default=None, metavar="PATH",
                       help="write the export to PATH instead of stdout")
    trace.add_argument("--json", action="store_true",
                       help="wrap stdout output in the shared report "
                            "envelope")

    explain = sub.add_parser(
        "explain",
        help="query the decision audit log of a scenario run "
             "('why did task 7 move to CPU 12?')",
    )
    _add_obs_source_options(explain)
    explain.add_argument("--pid", type=int, default=None,
                         help="show every audit record concerning this "
                              "task (placements, decisions, migrations)")
    explain.add_argument("--site", default=None, metavar="SITE",
                         help="filter by decision site (energy_balance, "
                              "hot_migration, placement, migration)")
    explain.add_argument("--accepted-only", action="store_true",
                         help="show only decisions that resulted in an "
                              "action")
    explain.add_argument("--json", action="store_true",
                         help="print records as JSON in the shared "
                              "report envelope")
    return parser


def _add_obs_source_options(parser: argparse.ArgumentParser) -> None:
    """Shared trace/explain options choosing what to run."""
    parser.add_argument("--scenario", default="mixed-16cpu", metavar="NAME",
                        help="pinned scenario to run (default: "
                             "mixed-16cpu)")
    parser.add_argument("--file", default=None, metavar="PATH",
                        help="run a scenario JSON file instead of a "
                             "pinned scenario")
    parser.add_argument("--duration", type=_positive_duration, default=None,
                        metavar="SECONDS",
                        help=f"simulated duration (default: "
                             f"{OBS_DEFAULT_DURATION_S:g} for pinned "
                             f"scenarios, the file's own duration for "
                             f"--file)")


def _resolve_experiment(parser: argparse.ArgumentParser, name: str) -> str:
    """``name`` if registered, else a clean argparse error with suggestions."""
    if name in REGISTRY:
        return name
    close = difflib.get_close_matches(name, REGISTRY, n=3, cutoff=0.4)
    hint = f" — did you mean: {', '.join(close)}?" if close else ""
    parser.error(
        f"unknown experiment {name!r}{hint}\n"
        f"valid experiments: {', '.join(sorted(REGISTRY))}"
    )


def _make_cache(args):
    if args.no_cache:
        return None
    from repro.runner import ResultCache, default_cache_dir

    return ResultCache(root=args.cache_dir or default_cache_dir())


def _journal_path(args, specs, command: str):
    """Where this grid's journal lives: --resume/--journal PATH, or a
    content-addressed default under the cache directory."""
    import hashlib
    import pathlib

    if args.resume is not None:
        return pathlib.Path(args.resume)
    if args.journal is None:
        return None
    if args.journal != "auto":
        return pathlib.Path(args.journal)
    from repro.runner import default_cache_dir

    root = pathlib.Path(args.cache_dir or default_cache_dir())
    digest = hashlib.sha256(
        "\n".join(spec.content_hash() for spec in specs).encode()
    ).hexdigest()[:16]
    return root / "journals" / f"{command}-{digest}.jsonl"


def _resume_specs(parser, args, command: str):
    """The spec list and arguments recorded in ``--resume``'s journal
    meta record, and the replay they came from (the journal reuses it,
    so the file is read once)."""
    import pathlib

    from repro.resilience import replay_journal

    if not pathlib.Path(args.resume).is_file():
        parser.error(
            f"cannot resume from {args.resume!r}: no such journal file"
        )
    replay = replay_journal(args.resume)
    try:
        specs = replay.specs()
    except ValueError as exc:
        parser.error(f"cannot resume from {args.resume!r}: {exc}")
    meta = replay.meta or {}
    if meta.get("command") not in (None, command):
        parser.error(
            f"{args.resume!r} journals a {meta.get('command')!r} run; "
            f"resume it with 'repro {meta.get('command')} --resume'"
        )
    return specs, meta.get("args") or {}, replay


def _make_bus(args):
    """Build the run event bus requested by the telemetry options.

    Returns ``(bus, server, sink)`` — all ``None`` when neither
    ``--serve-metrics`` nor ``--events`` was given, so the hot paths
    never see a bus (and never import the live module) by default.
    """
    serve_port = getattr(args, "serve_metrics", None)
    events_path = getattr(args, "events", None)
    if serve_port is None and events_path is None:
        return None, None, None
    from repro.obs import EventBus, JsonlSink

    bus = EventBus()
    sink = None
    if events_path is not None:
        sink = JsonlSink(events_path)
        bus.subscribe(sink)
    server = None
    if serve_port is not None:
        from repro.obs.live import serve_bus

        server = serve_bus(bus, port=serve_port)
        print(f"live telemetry: {server.url}/metrics "
              f"(watch with: python -m repro top --port {server.port})",
              file=sys.stderr)
    return bus, server, sink


def _close_bus(server, sink) -> None:
    if server is not None:
        server.close()
    if sink is not None:
        sink.close()


def _run_jobs(parser, args, specs, command="sweep", command_args=None,
              replay=None):
    """Shared sweep/batch execution; prints progress+cache info to stderr.

    Opens the journal when journaling is on (from ``replay``, the
    ``--resume`` journal's replay, when given), wires SIGINT/SIGTERM to
    a graceful drain, and prints the resume command when the sweep
    stops early.
    """
    import signal
    import threading

    from repro.runner import run_grid

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    cache = _make_cache(args)

    def progress(outcome, i, total):
        if outcome.quarantined:
            status = "QUARANTINED"
        elif not outcome.ok:
            status = "FAILED"
        elif outcome.resumed:
            status = "resumed"
        elif outcome.cached:
            status = "cached"
        else:
            status = "ok"
        line = f"  [{i + 1}/{total}] {outcome.spec.label:<32} {status}"
        if not outcome.cached and outcome.ok:
            line += f"  {outcome.elapsed_s:.2f}s"
        print(line, file=sys.stderr)

    journal = None
    journal_path = _journal_path(args, specs, command)
    if journal_path is not None:
        from repro.resilience import SweepJournal

        journal = SweepJournal(
            journal_path, specs, command=command,
            command_args=command_args or {}, replay=replay,
        )

    stop_event = threading.Event()

    def _on_signal(signum, frame):
        if stop_event.is_set():
            raise KeyboardInterrupt
        stop_event.set()
        print("\ninterrupt received — draining running jobs and flushing "
              "the journal (interrupt again to abort hard)", file=sys.stderr)

    previous_handlers = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[sig] = signal.signal(sig, _on_signal)
    except ValueError:  # not the main thread (e.g. embedded use)
        pass
    bus, server, sink = _make_bus(args)
    try:
        report = run_grid(
            specs, workers=args.workers, cache=cache,
            timeout_s=args.timeout, retries=args.retries,
            progress=progress, journal=journal, stop_event=stop_event,
            bus=bus, engine=args.engine,
        )
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        if journal is not None:
            journal.close()
        _close_bus(server, sink)
    if report.cache_stats is not None:
        print(f"cache: {report.cache_stats.describe()} "
              f"(dir: {cache.root})", file=sys.stderr)
    if report.exec_stats is not None:
        incidents = report.exec_stats.describe()
        if incidents != "no incidents":
            print(f"incidents: {incidents}", file=sys.stderr)
    print(f"wall clock: {report.wall_s:.1f}s at --workers {args.workers}",
          file=sys.stderr)
    for outcome in report.failures:
        print(f"error: {outcome.spec.label}: {outcome.error} "
              f"({outcome.attempts} attempts)", file=sys.stderr)
    if report.interrupted:
        if journal_path is not None:
            print(f"interrupted — finish with: python -m repro {command} "
                  f"--resume {journal_path}", file=sys.stderr)
        else:
            print("interrupted — no journal was kept (use --journal to "
                  "make sweeps resumable)", file=sys.stderr)
    return report


def _aggregate_json(summaries) -> dict:
    return {
        s.name: {"n": s.n, "mean": s.mean, "std": s.std,
                 "ci95_half": s.ci95_half}
        for s in summaries
    }


def _check_jobs(parser, specs) -> None:
    """Check every job before any job runs.

    A job that cannot build would fail, and be retried, once per seed;
    one usage error (exit 2) names it instead: an experiment job must
    name a registered experiment, and each distinct scenario job must
    parse (once).
    """
    from repro.scenario import read_scenario

    seen = set()
    for spec in specs:
        if spec.experiment is not None:
            if not isinstance(spec.experiment, str):
                parser.error(
                    f"an experiment name must be a string, not "
                    f"{spec.experiment!r}"
                )
            _resolve_experiment(parser, spec.experiment)
            continue
        key = spec.content_hash()
        if key in seen:
            continue
        seen.add(key)
        try:
            read_scenario(spec.scenario_data())
        except (ValueError, KeyError) as exc:
            parser.error(f"cannot build scenario {spec.label}: {exc}")


def _cmd_sweep(parser, args) -> int:
    from repro.analysis.report import format_scalar_summaries
    from repro.analysis.stats import summarize_scalars
    from repro.runner import sweep_specs

    if args.family_params is not None and args.family is None:
        parser.error("--family-params requires --family")
    replay = None
    if args.resume is not None:
        specs, meta_args, replay = _resume_specs(parser, args, "sweep")
        experiment = (args.experiment or meta_args.get("experiment")
                      or (specs[0].experiment if specs else "sweep"))
    elif args.family is not None:
        if args.experiment is not None or args.scenario is not None:
            parser.error("give an experiment name, --scenario, or "
                         "--family, not several")
        from repro.runner import JobSpec, parse_seeds
        from repro.scenarios import GeneratorSpec

        params = {}
        if args.family_params is not None:
            try:
                params = json.loads(args.family_params)
            except ValueError as exc:
                parser.error(f"bad --family-params JSON: {exc}")
            if not isinstance(params, dict):
                parser.error("--family-params must be a JSON object")
        try:
            # Validate family + params once, up front; the per-seed
            # instances are expanded inside each job from the same spec.
            # Only overridden params can hold a bad value, so only then
            # is the seed-1 instance generated here.
            generator = GeneratorSpec(args.family, params, seed=1)
            if params:
                generator.instantiate()
            data = {"generator": {"family": args.family}}
            if params:
                data["generator"]["params"] = params
            specs = [
                JobSpec(scenario=data, seed=seed, duration_s=args.duration)
                for seed in parse_seeds(args.seeds)
            ]
        except ValueError as exc:
            parser.error(str(exc))
        experiment = args.family
    elif args.scenario is not None:
        if args.experiment is not None:
            parser.error("give an experiment name or --scenario, not both")
        import pathlib

        from repro.runner import JobSpec, parse_seeds

        data = _read_scenario_file(parser, args.scenario)
        data.setdefault("name", pathlib.Path(args.scenario).stem)
        try:
            specs = [
                JobSpec(scenario=data, seed=seed, duration_s=args.duration)
                for seed in parse_seeds(args.seeds)
            ]
        except ValueError as exc:
            parser.error(str(exc))
        experiment = data["name"]
        _check_jobs(parser, specs)
    else:
        if args.experiment is None:
            parser.error("an experiment name is required "
                         "(or --resume / --scenario)")
        experiment = _resolve_experiment(parser, args.experiment)
        try:
            specs = sweep_specs(experiment, seeds=args.seeds,
                                duration_s=args.duration)
        except ValueError as exc:
            parser.error(str(exc))
    command_args = {"experiment": experiment, "seeds": args.seeds,
                    "duration": args.duration}
    report = _run_jobs(parser, args, specs, command="sweep",
                       command_args=command_args, replay=replay)
    if report.interrupted:
        return 130
    samples = report.scalar_samples()
    if not samples:
        return 1
    summaries = summarize_scalars(samples)
    if args.json:
        print(json.dumps(
            {
                "experiment": experiment,
                "duration_s": args.duration,
                "seeds": [o.spec.seed for o in report.outcomes if o.ok],
                "jobs": [
                    {"seed": o.spec.seed, "scalars": o.result["scalars"]}
                    for o in report.outcomes if o.ok
                ],
                "aggregate": _aggregate_json(summaries),
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(format_scalar_summaries(
            summaries,
            title=f"{experiment}: {len(samples)} seeds, mean ± 95% CI",
        ))
    return 1 if report.failures else 0


def _cmd_batch(parser, args) -> int:
    from repro.analysis.report import format_scalar_summaries
    from repro.analysis.stats import summarize_scalars
    from repro.runner import load_grid

    replay = None
    if args.resume is not None:
        flat, command_args, replay = _resume_specs(parser, args, "batch")
        # The journal meta records each entry's label and job count, so
        # the blocks print as they did whatever became of the grid file.
        layout = command_args.get("entries")
        if not layout or sum(count for _label, count in layout) != len(flat):
            layout = [("resumed batch", len(flat))]
    else:
        if args.path is None:
            parser.error("a grid JSON file is required (or --resume)")
        try:
            entries = load_grid(args.path)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load grid {args.path!r}: {exc}")
        flat = [spec for entry in entries for spec in entry.specs]
        _check_jobs(parser, flat)
        layout = [[entry.label, len(entry.specs)] for entry in entries]
        command_args = {"path": str(args.path), "entries": layout}
    report = _run_jobs(parser, args, flat, command="batch",
                       command_args=command_args, replay=replay)
    if report.interrupted:
        return 130

    groups = []
    cursor = 0
    for label, count in layout:
        outcomes = report.outcomes[cursor:cursor + count]
        cursor += count
        samples = [o.result["scalars"] for o in outcomes if o.ok]
        groups.append((label, outcomes, samples))

    if args.json:
        print(json.dumps(
            [
                {
                    "label": label,
                    "jobs": [
                        {"spec": o.spec.to_dict(), "scalars": o.result["scalars"]}
                        for o in outcomes if o.ok
                    ],
                    "aggregate": (_aggregate_json(summarize_scalars(samples))
                                  if samples else None),
                }
                for label, outcomes, samples in groups
            ],
            indent=2, sort_keys=True,
        ))
    else:
        blocks = []
        for label, outcomes, samples in groups:
            if not samples:
                blocks.append(f"{label}: all {len(outcomes)} jobs failed")
                continue
            blocks.append(format_scalar_summaries(
                summarize_scalars(samples),
                title=f"{label}: {len(samples)} jobs, mean ± 95% CI",
            ))
        print("\n\n".join(blocks))
    return 1 if report.failures else 0


def _cmd_tournament(parser, args) -> int:
    from repro.scenarios.pinned import scenario_by_name
    from repro.tournament import (
        DEFAULT_DURATION_S,
        TOURNAMENT_SCENARIOS,
        format_policy_report,
        run_tournament,
        write_policies_json,
    )

    scenarios = None
    if args.scenarios:
        try:
            scenarios = [scenario_by_name(name, TOURNAMENT_SCENARIOS)
                         for name in args.scenarios]
        except ValueError as exc:
            parser.error(str(exc))
    policies = None
    if args.policies:
        from repro.core.policyspec import PolicySpec

        try:
            policies = [PolicySpec.coerce(name) for name in args.policies]
        except ValueError as exc:
            parser.error(str(exc))
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    cache = _make_cache(args)

    def progress(outcome, i, total):
        status = "cached" if outcome.cached else ("ok" if outcome.ok
                                                  else "FAILED")
        print(f"  [{i + 1}/{total}] {outcome.spec.label:<40} {status}",
              file=sys.stderr)

    bus, server, sink = _make_bus(args)
    try:
        payload = run_tournament(
            duration_s=args.duration or DEFAULT_DURATION_S,
            scenarios=scenarios,
            policies=policies,
            workers=args.workers,
            cache=cache,
            check_oracle=not args.skip_oracle,
            progress=progress,
            bus=bus,
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _close_bus(server, sink)
    path = write_policies_json(payload, args.output)
    if args.json:
        _print_json_report(payload)
    else:
        print(format_policy_report(payload))
    print(f"wrote {path}", file=sys.stderr)
    oracle = payload["oracle"]
    if oracle.get("checked") and not oracle["identical"]:
        print("error: fast path diverged from the scalar reference",
              file=sys.stderr)
        return 1
    return 0


def _cmd_validate(parser, args) -> int:
    from repro.scenarios.pinned import scenario_by_name
    from repro.validate import (
        format_validation_report,
        run_validation,
        write_golden,
        write_validation_json,
    )

    scenarios = None
    if args.scenarios:
        try:
            scenarios = [scenario_by_name(name) for name in args.scenarios]
        except ValueError as exc:
            parser.error(str(exc))
    if args.sample_every < 1:
        parser.error(f"--sample-every must be >= 1, got {args.sample_every}")
    if args.write_golden is not None:
        paths = write_golden(args.write_golden, scenarios)
        for path in paths:
            print(f"wrote {path}", file=sys.stderr)
        return 0
    payload = run_validation(
        scenarios,
        duration_s=args.duration,
        sample_every=args.sample_every,
        include_faults=not args.skip_faults,
    )
    if args.output is not None:
        path = write_validation_json(payload, args.output)
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        _print_json_report(payload)
    else:
        print(format_validation_report(payload))
    return 0 if payload["ok"] else 1


def _read_scenario_file(parser, path) -> dict:
    """The JSON object in a scenario file; a missing file, bad JSON or a
    document that is not an object exits with one usage error."""
    import pathlib

    try:
        data = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load scenario {path!r}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"cannot load scenario {path!r}: a scenario must be a "
                     f"JSON object, not {type(data).__name__}")
    return data


def _load_scenario_file(parser, path):
    """``(scenario, run switches)`` of a scenario file, or one usage
    error naming what cannot build."""
    from repro.scenario import read_scenario

    try:
        return read_scenario(_read_scenario_file(parser, path))
    except (ValueError, KeyError) as exc:
        parser.error(f"cannot load scenario {path!r}: {exc}")


def _run_observed(parser, args):
    """Shared trace/explain execution: resolve the source, run it with
    its switches and the observer on, return (result, scenario name)."""
    if args.file is not None:
        scenario, options = _load_scenario_file(parser, args.file)
        name, default_duration = scenario.workload.name, scenario.duration_s
    else:
        from repro.scenario import read_scenario
        from repro.scenarios.pinned import scenario_by_name

        try:
            pinned = scenario_by_name(args.scenario)
        except ValueError as exc:
            parser.error(str(exc))
        scenario, options = read_scenario(pinned.scenario)
        name, default_duration = pinned.name, OBS_DEFAULT_DURATION_S
    duration = args.duration if args.duration is not None else default_duration
    result = dataclasses.replace(scenario, duration_s=duration).run(
        dataclasses.replace(options, obs=True)
    )
    return result, name


def _cmd_trace(parser, args) -> int:
    from repro.obs import PROMETHEUS_CONTENT_TYPE

    result, name = _run_observed(parser, args)
    try:
        if args.format == "chrome":
            export = result.chrome_trace(scenario=name)
            text = json.dumps(export, indent=2, sort_keys=True)
        elif args.format == "metrics":
            export = result.metrics_snapshot()
            text = json.dumps(export, indent=2, sort_keys=True)
        elif args.format == "prometheus":
            text = result.observer.prometheus().rstrip("\n")
            export = {"content_type": PROMETHEUS_CONTENT_TYPE,
                      "text": text + "\n"}
        else:  # events
            events = list(result.tracer.events)
            if not events:
                print(f"note: {name} recorded no trace events over this "
                      f"duration; the export is an empty event list",
                      file=sys.stderr)
            export = {
                "scenario": name,
                "events": [e.to_dict() for e in events],
            }
            text = json.dumps(export, indent=2, sort_keys=True)
    except (AttributeError, ValueError) as exc:
        # e.g. metrics disabled in the observability config: report why
        # the export is unavailable instead of dumping a traceback.
        print(f"error: cannot export {args.format} telemetry for {name}: "
              f"{exc}", file=sys.stderr)
        return 1
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
        if not args.json:
            return 0
    if args.json:
        _print_json_report(
            {"scenario": name, "format": args.format, "export": export}
        )
    elif args.output is None:
        print(text)
    return 0


def _format_audit_record(record) -> str:
    chosen = str(record.chosen) if record.chosen >= 0 else "-"
    status = "accepted" if record.accepted else "declined"
    line = (
        f"[{record.time_s:9.3f}s] #{record.seq:<6} {record.site:<14} "
        f"cpu={record.cpu:<3} pid={record.pid:<5} -> {chosen:<3} {status}"
    )
    if record.detail:
        line += "\n    " + json.dumps(record.to_dict()["detail"],
                                      sort_keys=True)
    return line


def _cmd_explain(parser, args) -> int:
    from repro.obs import AUDIT_SITES

    if args.site is not None and args.site not in AUDIT_SITES:
        parser.error(
            f"unknown audit site {args.site!r}; expected one of "
            f"{', '.join(AUDIT_SITES)}"
        )
    result, name = _run_observed(parser, args)
    audit = result.audit
    if args.pid is None and args.site is None and not args.accepted_only:
        # Summary mode: what did the audit log capture?
        payload = {
            "scenario": name,
            "records": len(audit),
            "dropped": audit.dropped,
            "sites": audit.sites_seen(),
        }
        if args.json:
            _print_json_report(payload)
        else:
            print(f"{name}: {len(audit)} audit records "
                  f"({audit.dropped} dropped)")
            if not len(audit):
                print("no scheduler decisions fired — the policy has no "
                      "audited decision sites (e.g. baseline) or the "
                      "duration was too short; try --duration 300 or an "
                      "energy-aware scenario")
                return 0
            for site, count in audit.sites_seen().items():
                print(f"  {site:<16} {count}")
            print("use --pid / --site to select records")
        return 0
    records = audit.query(
        site=args.site,
        pid=args.pid,
        accepted=True if args.accepted_only else None,
    )
    if args.json:
        _print_json_report({
            "scenario": name,
            "pid": args.pid,
            "site": args.site,
            "matched": len(records),
            "records": [r.to_dict() for r in records],
        })
    else:
        for record in records:
            print(_format_audit_record(record))
        print(f"{len(records)} record(s) matched", file=sys.stderr)
        if not records and len(audit):
            import shlex

            source = (f"--file {shlex.quote(args.file)}"
                      if args.file is not None
                      else f"--scenario {args.scenario}")
            if args.duration is not None:
                source += f" --duration {args.duration!r}"
            print(f"hint: {len(audit)} records exist; 'repro explain "
                  f"{source}' summarizes the sites and pids seen",
                  file=sys.stderr)
    return 0


def _cmd_top(parser, args) -> int:
    import urllib.error
    import urllib.request

    if args.url is not None:
        base = args.url.rstrip("/")
    elif args.port is not None:
        base = f"http://127.0.0.1:{args.port}"
    else:
        parser.error("give --port PORT or --url URL (printed to stderr by "
                     "the run started with --serve-metrics)")

    def fetch() -> dict:
        with urllib.request.urlopen(f"{base}/snapshot", timeout=5) as resp:
            return json.loads(resp.read())

    from repro.obs.live import render_top

    try:
        while True:
            try:
                payload = fetch()
            except (OSError, urllib.error.URLError, ValueError) as exc:
                print(f"error: cannot read {base}/snapshot: {exc}\n"
                      f"is the run still up, and was it started with "
                      f"--serve-metrics?", file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(render_top(payload.get("live", {})))
            if args.watch is None:
                return 0
            import time as _time

            _time.sleep(args.watch)
            if not args.json:
                print("", file=sys.stderr)
    except KeyboardInterrupt:
        return 0


def _cmd_scenarios(parser, args) -> int:
    from repro.scenarios import GeneratorSpec, family_by_name, family_names

    if args.family is None:
        if args.params is not None or args.digest:
            parser.error("--params/--digest need a family to instantiate")
        names = family_names()
        width = max(len(name) for name in names)
        for name in names:
            family = family_by_name(name)
            tags = []
            if family.fleet_eligible:
                tags.append("fleet")
            if family.adversarial:
                tags.append("adversarial")
            suffix = f" [{', '.join(tags)}]" if tags else ""
            print(f"{name:<{width}}  {family.description}{suffix}")
        return 0
    params = {}
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except ValueError as exc:
            parser.error(f"bad --params JSON: {exc}")
        if not isinstance(params, dict):
            parser.error("--params must be a JSON object")
    try:
        spec = GeneratorSpec(args.family, params, seed=args.seed)
        if args.digest:
            print(spec.digest())
            return 0
        print(json.dumps(spec.instantiate(), indent=2, sort_keys=True))
    except ValueError as exc:
        parser.error(str(exc))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in REGISTRY)
        for name in sorted(REGISTRY):
            print(f"{name:<{width}}  {REGISTRY[name].description}")
        return 0
    if args.command == "run-file":
        from repro.analysis.export import run_summary_json

        scenario, options = _load_scenario_file(parser, args.path)
        options = dataclasses.replace(
            options, validate=options.validate or args.validate
        )
        if args.checkpoint is not None:
            from repro.resilience import run_simulation_checkpointed

            def on_checkpoint(path, ticks):
                print(f"checkpoint: {path} at tick {ticks}",
                      file=sys.stderr)

            result = run_simulation_checkpointed(
                scenario, args.checkpoint, options=options,
                checkpoint_every_s=args.checkpoint_every,
                on_checkpoint=on_checkpoint,
            )
        else:
            result = scenario.run(options)
        print(run_summary_json(result))
        violations = result.violations
        if violations:
            print(f"error: {len(violations)} invariant violation(s):",
                  file=sys.stderr)
            for violation in violations[:20]:
                print(f"  [tick {violation.tick}] {violation.invariant}: "
                      f"{violation.message}", file=sys.stderr)
            return 1
        return 0
    if args.command == "resume":
        from repro.analysis.export import run_summary_json
        from repro.resilience import CheckpointError, resume_simulation

        try:
            result = resume_simulation(
                args.checkpoint, duration_s=args.duration,
                allow_stale=args.allow_stale,
            )
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(run_summary_json(result))
        return 0
    if args.command == "sweep":
        return _cmd_sweep(parser, args)
    if args.command == "scenarios":
        return _cmd_scenarios(parser, args)
    if args.command == "batch":
        return _cmd_batch(parser, args)
    if args.command == "tournament":
        return _cmd_tournament(parser, args)
    if args.command == "validate":
        return _cmd_validate(parser, args)
    if args.command == "trace":
        return _cmd_trace(parser, args)
    if args.command == "explain":
        return _cmd_explain(parser, args)
    if args.command == "top":
        return _cmd_top(parser, args)
    names = [_resolve_experiment(parser, name) for name in args.experiments]
    runs = names or sorted(REGISTRY)
    try:
        reports = [
            run_experiment(name, duration_s=args.duration, seed=args.seed)
            for name in runs
        ]
    except ValueError as exc:
        parser.error(str(exc))
    if len(names) == 1:
        print(reports[0])
    else:
        print("\n\n".join(
            f"===== {name} =====\n{report}"
            for name, report in zip(runs, reports)
        ))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
