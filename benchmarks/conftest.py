"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper: it runs the
experiment once, prints the paper-style rows/series to the live
terminal, and writes them to ``benchmarks/results/<name>.txt`` for the
record.  Shape assertions — who wins, by roughly what factor, where
crossovers fall — run against the measured numbers.

The §6/§7 experiments are defined in ``repro.experiments``; their
benchmarks run the registry's metrics at the committed duration and
seed and record its report, so ``python -m repro run NAME`` prints
``results/NAME.txt`` byte for byte.
"""

from __future__ import annotations

import pathlib

from repro.experiments import REGISTRY

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(capsys, name: str, text: str) -> None:
    """Print ``text`` to the real terminal and persist it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    with capsys.disabled():
        print(f"\n===== {name} =====")
        print(text)


def emit_report(capsys, metrics: dict) -> None:
    """Persist a registry experiment's report under its registry name."""
    name = metrics["experiment"]
    emit(capsys, name, REGISTRY[name].render(metrics))
