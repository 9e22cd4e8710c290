"""Table 2 — power consumption of the test programs.

Paper (package power while running each program on one CPU):

    bitcnts 61 W | memrw 38 W | aluadd 50 W | pushpop 47 W
    openssl 42-57 W | bzip2 48 W

Measured here through the full pipeline: ground-truth (multimeter)
package power sampled while each program runs alone, plus the
counter-based estimate alongside (the §3.2 error check at program
granularity)."""

from __future__ import annotations

import random

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.estimator import build_calibrated_estimator
from repro.cpu.frequency import ExecutionModel
from repro.cpu.power import GroundTruthPower, PowerModelParams
from repro.workloads.programs import PROGRAMS, program

PAPER = {
    "bitcnts": (61.0, 61.0),
    "memrw": (38.0, 38.0),
    "aluadd": (50.0, 50.0),
    "pushpop": (47.0, 47.0),
    "openssl": (42.0, 57.0),
    "bzip2": (48.0, 48.0),  # time average; phases alternate 28/53 W
}
N_SLICES = 1200
SLICE_S = 0.1


def measure_program(name: str, seed: int = 202):
    power = GroundTruthPower(PowerModelParams())
    exec_model = ExecutionModel()
    rng = random.Random(seed)
    estimator = build_calibrated_estimator(power, exec_model, PROGRAMS.values(), rng)
    behavior = program(name).build_behavior(power, exec_model.freq_hz, rng)
    true_w = np.empty(N_SLICES)
    est_w = np.empty(N_SLICES)
    for i in range(N_SLICES):
        mix = behavior.step(SLICE_S)
        dyn = power.dynamic_power_w(mix.rates_per_cycle, exec_model.freq_hz)
        true_w[i] = power.sample_package_power_w([dyn], False, rng)
        cycles = exec_model.effective_cycles(SLICE_S, False)
        est_w[i] = estimator.power_w(mix.rates_per_cycle * cycles, SLICE_S)
    return true_w, est_w


def test_table2_program_power(capsys):
    measured = {name: measure_program(name) for name in PAPER}

    rows = []
    for name, (lo, hi) in PAPER.items():
        true_w, est_w = measured[name]
        paper_str = f"{lo:.0f}W" if lo == hi else f"{lo:.0f}-{hi:.0f}W"
        if name == "openssl":
            ours = f"{np.percentile(true_w, 3):.0f}-{np.percentile(true_w, 97):.0f}W"
        else:
            ours = f"{true_w.mean():.1f}W"
        err = np.mean(np.abs(est_w - true_w) / true_w)
        rows.append([name, ours, paper_str, f"{err * 100:.1f}%"])
    emit(
        capsys,
        "table2_program_power",
        format_table(
            ["program", "power (ours)", "power (paper)", "est. error"],
            rows,
            title="Table 2: programs used for the tests",
        ),
    )

    # Shape assertions: measured means within 5 % of the paper's values.
    for name in ("bitcnts", "memrw", "aluadd", "pushpop"):
        true_w, _ = measured[name]
        np.testing.assert_allclose(true_w.mean(), PAPER[name][0], rtol=0.05)
    # openssl spans roughly the published range.
    openssl_true, _ = measured["openssl"]
    assert np.percentile(openssl_true, 97) > 52.0
    assert np.percentile(openssl_true, 3) < 45.0
    # Relative ordering: bitcnts hottest, memrw coolest.
    means = {name: measured[name][0].mean() for name in PAPER}
    assert max(means, key=means.get) == "bitcnts"
    assert min(means, key=means.get) == "memrw"
    # §3.2: estimation error below 10 % for every program.
    for name in PAPER:
        true_w, est_w = measured[name]
        assert np.mean(np.abs(est_w - true_w) / true_w) < 0.10, name
