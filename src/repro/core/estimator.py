"""Estimator calibration glue (paper §3.2).

The authors calibrate Eq. 1's weights by running test applications,
counting events, and measuring true energy with a multimeter.  We do the
same against the ground-truth power model: synthesise timeslices of the
calibration programs (single-threaded, plus SMT pairs when the machine
has siblings), record noisy counter deltas and noisy "measured" energy,
and solve the resulting system by least squares.
"""

from __future__ import annotations

import random
from typing import Iterable

import numpy as np

from repro.cpu.frequency import ExecutionModel
from repro.cpu.power import GroundTruthPower, LinearEnergyEstimator, fit_estimator
from repro.workloads.programs import ProgramSpec


def build_calibrated_estimator(
    power: GroundTruthPower,
    exec_model: ExecutionModel,
    programs: Iterable[ProgramSpec],
    rng: random.Random,
    smt: bool = False,
    slices_per_program: int = 40,
    slice_s: float = 0.1,
    counter_jitter_sigma: float = 0.01,
) -> LinearEnergyEstimator:
    """Run the calibration procedure and return the fitted estimator.

    For each program, ``slices_per_program`` timeslices are synthesised:
    event counts from the program's behaviour (with counter jitter) and
    a noisy multimeter energy reading for the same interval.  With
    ``smt`` enabled, half the slices execute with a busy sibling running
    the same program, so the fit sees both single- and dual-thread
    operating points.
    """
    programs = list(programs)
    if not programs:
        raise ValueError("need at least one calibration program")
    freq = exec_model.freq_hz
    # The loop makes only the rng draws, each slice in the contract's
    # order: the behaviour's phase machine, the counter jitter's (when
    # enabled), then the multimeter noise's.  It records each slice's
    # phase row and wobble; the rest runs over all slices at once.  A
    # row times its wobble is the scaled mix ``Behavior.step`` would
    # build, and a disabled jitter is a factor of 1.0, which multiplies
    # exactly.
    phase_rows, row, wobble, jitter, noise = [], [], [], [], []
    gauss = rng.gauss
    noise_sigma = power.params.noise_sigma
    for spec in programs:
        behavior = spec.build_behavior(power, freq, rng)
        offset = len(phase_rows)
        phase_rows.extend(phase.mix.rates_per_cycle for phase in behavior.phases)
        advance = behavior.advance
        for _ in range(slices_per_program):
            index, w = advance(slice_s)
            row.append(offset + index)
            wobble.append(w)
            g = gauss(0.0, counter_jitter_sigma) if counter_jitter_sigma else 0.0
            jitter.append(g)
            noise.append(gauss(0.0, noise_sigma))
    rates = np.array(phase_rows)[row] * np.array(wobble)[:, None]
    sibling = np.tile(np.arange(slices_per_program) % 2 == 1, len(programs))
    sibling &= bool(smt)
    cycles = np.where(
        sibling,
        exec_model.effective_cycles(slice_s, True),
        exec_model.effective_cycles(slice_s, False),
    )
    deltas = rates * cycles[:, None] * np.maximum(0.0, 1.0 + np.array(jitter))[:, None]
    dyn = power.dynamic_power_w_batch(rates, freq)
    # With a busy sibling, it runs the same mix; the multimeter sees the
    # whole package, and the paper attributes half to each logical CPU
    # (the counters distinguish them, §4.7).  ``t + t`` is the scalar
    # model's ``sum([t, t])``.
    t = dyn * exec_model.smt_thread_factor
    package_w = power.package_power_w_batch(
        np.where(sibling, t + t, dyn), np.array(noise)
    )
    energy = np.where(sibling, package_w * slice_s / 2.0, package_w * slice_s)
    return fit_estimator(slice_s * np.where(sibling, 0.5, 1.0), deltas, energy)
