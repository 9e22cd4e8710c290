"""Table 1 — change in power consumption during successive timeslices.

Paper (measured on real hardware):

    program   maximum   average
    bash       19.0 %    2.05 %
    bzip2      88.8 %    5.45 %
    grep       84.3 %    1.06 %
    sshd       18.3 %    1.38 %
    openssl    63.2 %    2.48 %

Shape targets: interactive programs (bash, sshd) have *small* maxima
(< 30 %); phase-changing programs (bzip2, grep, openssl) have *large*
maxima (> 40 %); every program's average stays below ~8 % — which is the
property §3.3 relies on (last timeslice predicts the next one).
"""

from __future__ import annotations

import random

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.analysis.stats import phase_change_stats
from repro.core.estimator import build_calibrated_estimator
from repro.cpu.frequency import ExecutionModel
from repro.cpu.power import GroundTruthPower, PowerModelParams
from repro.workloads.programs import PROGRAMS, program

PAPER = {
    "bash": (19.0, 2.05),
    "bzip2": (88.8, 5.45),
    "grep": (84.3, 1.06),
    "sshd": (18.3, 1.38),
    "openssl": (63.2, 2.48),
}
N_SLICES = 2500  # "several hundreds of timeslices" per program, and then some
SLICE_S = 0.1


def measure_timeslice_powers(name: str, seed: int = 101) -> np.ndarray:
    """Estimated power of successive timeslices of one program.

    Reproduces the paper's measurement directly: the program runs alone
    on one CPU; counters are read at every timeslice boundary and turned
    into per-timeslice power by the calibrated estimator.
    """
    power = GroundTruthPower(PowerModelParams())
    exec_model = ExecutionModel()
    rng = random.Random(seed)
    estimator = build_calibrated_estimator(
        power, exec_model, PROGRAMS.values(), rng
    )
    behavior = program(name).build_behavior(power, exec_model.freq_hz, rng)
    powers = np.empty(N_SLICES)
    for i in range(N_SLICES):
        mix = behavior.step(SLICE_S)
        cycles = exec_model.effective_cycles(SLICE_S, sibling_busy=False)
        deltas = mix.rates_per_cycle * cycles
        jitter = max(0.0, 1.0 + rng.gauss(0.0, 0.01))
        powers[i] = estimator.power_w(deltas * jitter, SLICE_S)
    return powers


def test_table1_phase_stability(capsys):
    stats = {
        name: phase_change_stats(name, measure_timeslice_powers(name))
        for name in PAPER
    }

    rows = []
    for name, (paper_max, paper_avg) in PAPER.items():
        s = stats[name]
        rows.append(
            [name, f"{s.max_change * 100:.1f}%", f"{s.avg_change * 100:.2f}%",
             f"{paper_max:.1f}%", f"{paper_avg:.2f}%"]
        )
    emit(
        capsys,
        "table1_phase_stability",
        format_table(
            ["program", "max (ours)", "avg (ours)", "max (paper)", "avg (paper)"],
            rows,
            title="Table 1: change in power during successive timeslices",
        ),
    )

    # Shape assertions.
    for name in ("bash", "sshd"):
        assert stats[name].max_change < 0.30, f"{name} should be stable"
    for name in ("bzip2", "grep", "openssl"):
        assert stats[name].max_change > 0.40, f"{name} should show phase jumps"
    for name, s in stats.items():
        assert s.avg_change < 0.08, f"{name} average change too large"
    # bzip2 is the most volatile on average, as in the paper.
    assert stats["bzip2"].avg_change == max(s.avg_change for s in stats.values())
