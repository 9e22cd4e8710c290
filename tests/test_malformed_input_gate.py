"""Bad input ends in one ``repro: error:`` line, never a traceback.

A Hypothesis gate over the file-taking subcommands: it mutates one
valid scenario and one valid grid (drop a key; replace a value with
``null``, a string, a list, an object, its negation, ``NaN`` or
``Infinity``; wrap the whole document in a list) and runs each mutant
in-process through :func:`repro.cli.main`.  Every case must exit 0 or 2,
and exit 2 must print exactly one ``repro: error:`` line on stderr and
no traceback.  One mutation must fail: a key added to the document or to
any block the parser reads exits exactly 2, naming the key, under every
subcommand.  Runs are kept short: a 2-CPU machine, and ``--duration
0.2`` wherever the subcommand takes it (``run-file`` and ``batch`` read
the document's own 0.2 s).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main

#: A valid scenario touching every parser branch a task list reaches.
SCENARIO = {
    "name": "gate",
    "machine": {"preset": "smp", "n_cpus": 2},
    "max_power_per_cpu_w": 40.0,
    "seed": 3,
    "tick_ms": 10,
    "timeslice_ms": 100,
    "balance_interval_ms": 50,
    "idle_balance_interval_ms": 20,
    "hot_check_interval_ms": 30,
    "sample_interval_s": 0.1,
    "smt_thread_factor": 0.62,
    "counter_jitter_sigma": 0.01,
    "power": {"noise_sigma": 0.015},
    "thermal": {"r_k_per_w": 0.3, "c_j_per_k": 66.7, "ambient_c": 25.0},
    "throttle": {"enabled": True, "scope": "logical", "mode": "hlt"},
    "workload": {"tasks": [
        {"program": "bitcnts", "arrival_s": 0.0, "nice": 0,
         "cpus_allowed": [0, 1], "power_cap_w": 30.0},
        {"program": "memrw", "solo_job_s": 0.1, "respawn": "fork_new"},
    ]},
    "policy": "energy",
    "duration_s": 0.2,
}

#: A valid grid: one scenario entry built from a workload builder and
#: one experiment entry (fig9 runs its committed 220 s in well under a
#: second when a mutant drops the duration).
GRID = {"jobs": [{
    "scenario": {
        "machine": {"preset": "cmp", "packages": 1, "cores": 2},
        "temp_limit_c": 45.0,
        "workload": {"builder": "mixed_table2", "copies": 1},
        "policy": {"name": "energy", "params": {}},
        "duration_s": 0.2,
    },
    "seeds": [1],
    "duration_s": 0.2,
    "overrides": {"hot_check_interval_ms": 50},
    "label": "gate",
}, {
    "experiment": "fig9",
    "seeds": [1],
    "duration_s": 0.2,
    "label": "gate-experiment",
}]}

RUN_FILE = ("run-file",)
SWEEP = ("sweep", "--seeds", "1", "--no-cache", "--duration", "0.2",
         "--scenario")
TRACE = ("trace", "--duration", "0.2", "--file")
EXPLAIN = ("explain", "--duration", "0.2", "--file")
BATCH = ("batch", "--no-cache")

#: What a mutation may put in place of a value (negation is added for
#: numbers).
REPLACEMENTS = (None, "x", [1], {"x": 1}, math.nan, math.inf)


def _paths(doc, prefix=()):
    """Every key and index path in a JSON document, depth first."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutations(doc, keep=()):
    """Every single mutation of ``doc``; the paths in ``keep`` are never
    dropped."""
    out = [("wrap",)]
    for path in _paths(doc):
        value = doc
        for key in path:
            value = value[key]
        if path not in keep:
            out.append(("drop", path))
        for replacement in REPLACEMENTS:
            out.append(("set", path, replacement))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append(("set", path, -value))
    return out


def _mutant(doc, mutation):
    if mutation[0] == "wrap":
        return [copy.deepcopy(doc)]
    new = copy.deepcopy(doc)
    parent = new
    path = mutation[1]
    for key in path[:-1]:
        parent = parent[key]
    if mutation[0] == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation[2]
    return new


def _cases(command, doc, keep=()):
    return st.sampled_from(_mutations(doc, keep)).map(
        lambda mutation: (command, _mutant(doc, mutation))
    )


#: ``run-file`` has no ``--duration``: dropping ``duration_s`` would
#: run the 300 s default, so that key only takes invalid values there.
SCENARIO_CASES = st.one_of(
    _cases(RUN_FILE, SCENARIO, keep={("duration_s",)}),
    _cases(SWEEP, SCENARIO),
    _cases(TRACE, SCENARIO),
    _cases(EXPLAIN, SCENARIO),
)


def _run(command, document) -> tuple[int, str]:
    """Exit code and stderr of ``repro COMMAND FILE`` on ``document``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/input.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main([*command, path])
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue()


def _check(case) -> None:
    code, err = _run(*case)
    assert "Traceback" not in err, err
    assert code in (0, 2), (code, err)
    if code == 2:
        errors = [line for line in err.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1, err


def _with(doc, **changes):
    return {**doc, **changes}


def _workload(**changes):
    return _with(SCENARIO, workload={"builder": "mixed_table2", **changes})


def _task(**changes):
    return _with(SCENARIO, workload={"tasks": [{"program": "memrw",
                                                 **changes}]})


def _grid_entry(**changes):
    return {"jobs": [{**GRID["jobs"][0], **changes}]}


def _experiment_entry(**changes):
    return {"jobs": [{**GRID["jobs"][1], **changes}]}


@settings(max_examples=1500, deadline=None, database=None)
@given(case=SCENARIO_CASES)
# The inputs that ended in a traceback before the parsers checked types.
@example(case=(RUN_FILE, _workload(copies=None)))
@example(case=(RUN_FILE, _with(SCENARIO, seed=None)))
@example(case=(RUN_FILE, _with(SCENARIO, thermal={"r_k_per_w": None})))
@example(case=(RUN_FILE, _task(cpus_allowed=1)))
@example(case=(RUN_FILE, _workload(copies=math.inf)))
@example(case=(RUN_FILE, _with(SCENARIO, seed=math.inf)))
@example(case=(RUN_FILE, _with(SCENARIO, tick_ms=math.inf)))
@example(case=(RUN_FILE, _with(SCENARIO, max_power_per_cpu_w="x")))
@example(case=(SWEEP, _workload(copies=None)))
@example(case=(TRACE, _with(SCENARIO, seed=None)))
@example(case=(EXPLAIN, _with(SCENARIO, tick_ms=math.inf)))
# The inputs TestMalformedInput pins.
@example(case=(RUN_FILE, _with(SCENARIO, duration_s=-1)))
@example(case=(EXPLAIN, _with(SCENARIO, duration_s=-1)))
@example(case=(RUN_FILE, [1, 2]))
@example(case=(TRACE, [1, 2]))
@example(case=(RUN_FILE, _with(SCENARIO, machine="ibm_x445")))
@example(case=(RUN_FILE, _with(SCENARIO, workload="mixed")))
@example(case=(RUN_FILE, _with(SCENARIO, throttle="hlt")))
@example(case=(RUN_FILE, _with(SCENARIO, power=5)))
@example(case=(SWEEP, [1, 2]))
@example(case=(SWEEP, _with(SCENARIO, machine={"preset": "ibm_x999"})))
# Cases the gate found beyond those: values of the right type that the
# System build or the run rejected.
@example(case=(RUN_FILE, _with(SCENARIO, max_power_per_cpu_w=-40.0)))
@example(case=(RUN_FILE, _with(SCENARIO, sample_interval_s=math.inf)))
@example(case=(RUN_FILE, _with(SCENARIO, sample_interval_s=-0.1)))
@example(case=(RUN_FILE, _with(SCENARIO, counter_jitter_sigma=-0.01)))
@example(case=(RUN_FILE, _with(SCENARIO, power={"noise_sigma": math.nan})))
@example(case=(RUN_FILE, _with(SCENARIO, thermal={"r_k_per_w": math.inf})))
@example(case=(RUN_FILE, _with(SCENARIO, thermal={"ambient_c": math.nan})))
@example(case=(RUN_FILE, _task(cpus_allowed="x")))
@example(case=(RUN_FILE, _task(cpus_allowed=[[1]])))
@example(case=(RUN_FILE, _with(SCENARIO, smt_thread_factor=-0.62)))
@example(case=(SWEEP, _with(SCENARIO, smt_thread_factor=math.nan)))
def test_scenario_mutants_exit_cleanly(case):
    _check(case)


@settings(max_examples=300, deadline=None, database=None)
@given(case=_cases(BATCH, GRID))
@example(case=(BATCH, _grid_entry(seeds=None)))
@example(case=(BATCH, _grid_entry(duration_s=None)))
@example(case=(BATCH, {"jobs": [{
    **{k: v for k, v in GRID["jobs"][0].items() if k != "duration_s"},
    "durations": 5}]}))
@example(case=(BATCH, _grid_entry(overrides=[1])))
@example(case=(BATCH, [1, 2]))
@example(case=(BATCH, _grid_entry(
    scenario=_with(SCENARIO, machine={"preset": "ibm_x999"}))))
@example(case=(BATCH, {"jobs": [{"scenario": _with(SCENARIO, duration_s=-1),
                                  "seeds": [1]}]}))
@example(case=(BATCH, _grid_entry(scenario={
    **GRID["jobs"][0]["scenario"], "policy": {"name": "energy", "params": [1]}})))
@example(case=(BATCH, _grid_entry(scenario={
    **GRID["jobs"][0]["scenario"], "temp_limit_c": -45.0})))
# Experiment entries that failed only when their job ran (exit 1).
@example(case=(BATCH, _experiment_entry(experiment="nope")))
@example(case=(BATCH, _experiment_entry(experiment=5)))
@example(case=(BATCH, _experiment_entry(experiment=["fig9"])))
@example(case=(BATCH, _experiment_entry(duration_s=math.inf)))
def test_grid_mutants_exit_cleanly(case):
    _check(case)


#: The paths of every object block the scenario parser reads: the
#: gate's scenario (presetless task list, every optional block) and the
#: grid's (workload builder, cmp preset).
UNKNOWN_KEY_BLOCKS = [
    ("scenario", ()),
    ("scenario", ("machine",)),
    ("scenario", ("workload",)),
    ("scenario", ("workload", "tasks", 0)),
    ("scenario", ("workload", "tasks", 1)),
    ("scenario", ("throttle",)),
    ("scenario", ("power",)),
    ("scenario", ("thermal",)),
    ("grid", ("machine",)),
    ("grid", ("workload",)),
]


def _with_unknown_key(document, path):
    new = copy.deepcopy(document)
    block = new
    for key in path:
        block = block[key]
    block["not_a_key"] = 1
    return new


@pytest.mark.parametrize("command", [RUN_FILE, SWEEP, TRACE, EXPLAIN, BATCH],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("source,path", UNKNOWN_KEY_BLOCKS,
                         ids=lambda value: "/".join(map(str, value))
                         if isinstance(value, tuple) else value)
def test_unknown_key_is_one_usage_error(command, source, path):
    base = SCENARIO if source == "scenario" else GRID["jobs"][0]["scenario"]
    document = _with_unknown_key(base, path)
    if command is BATCH:
        document = {"jobs": [{"scenario": document, "seeds": [1]}]}
    code, err = _run(command, document)
    assert "Traceback" not in err, err
    assert code == 2, err
    errors = [line for line in err.splitlines()
              if line.startswith("repro: error:")]
    assert len(errors) == 1, err
    assert "not_a_key" in errors[0]
