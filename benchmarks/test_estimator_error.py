"""§3.2 / §4.2 accuracy claims measured in vivo.

* Energy estimation via Eq. 1 with calibrated weights errs < 10 %
  against the multimeter for real-world applications (§3.2).
* Estimating energy and then temperature through the thermal model errs
  by less than one Kelvin (§4.2).

Measured over the full mixed workload on the full machine, both SMT
settings."""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.api import run_simulation
from repro.experiments import fig6_config
from repro.workloads.generator import mixed_table2_workload

DURATION_S = 300.0


def test_estimation_accuracy(capsys):
    runs = {
        smt: run_simulation(fig6_config(smt=smt, seed=21),
                            mixed_table2_workload(6 if smt else 3),
                            duration_s=DURATION_S)
        for smt in (False, True)
    }

    rows = []
    for smt, result in runs.items():
        rows.append(
            [
                "SMT on" if smt else "SMT off",
                f"{result.estimation_error() * 100:.2f}%",
                f"{result.max_temperature_error_k:.3f} K",
            ]
        )
    table = format_table(
        ["machine", "mean energy est. error", "max temperature est. error"],
        rows,
        title="Estimator accuracy (paper: < 10 % energy, < 1 K temperature)",
    )
    emit(capsys, "estimator_error", table)

    for smt, result in runs.items():
        assert result.estimation_error() < 0.10, f"smt={smt}"
        assert result.max_temperature_error_k < 1.0, f"smt={smt}"
