"""Unit tests for the §3.2 estimator calibration glue."""

import random

import numpy as np
import pytest

from repro.core.estimator import build_calibrated_estimator
from repro.cpu.events import N_EVENTS
from repro.cpu.frequency import ExecutionModel
from repro.cpu.power import (
    CalibrationSample,
    GroundTruthPower,
    PowerModelParams,
    calibrate_estimator,
)
from repro.workloads.programs import PROGRAMS, program


@pytest.fixture
def power():
    return GroundTruthPower(PowerModelParams())


@pytest.fixture
def exec_model():
    return ExecutionModel(freq_hz=2.2e9)


class TestCalibration:
    def test_recovers_base_power(self, power, exec_model):
        est = build_calibrated_estimator(
            power, exec_model, PROGRAMS.values(), random.Random(1)
        )
        assert est.base_w == pytest.approx(20.0, rel=0.05)

    def test_single_thread_estimates_match_table2(self, power, exec_model):
        """Estimated power of each calibration program is close to its
        Table 2 ground truth."""
        est = build_calibrated_estimator(
            power, exec_model, PROGRAMS.values(), random.Random(1)
        )
        rng = random.Random(2)
        for name in ("bitcnts", "memrw", "aluadd", "pushpop"):
            spec = program(name)
            behavior = spec.build_behavior(power, 2.2e9, rng)
            mix = behavior.step(0.1)
            cycles = exec_model.effective_cycles(0.1, False)
            est_w = est.power_w(mix.rates_per_cycle * cycles, 0.1)
            true_w = 20.0 + power.dynamic_power_w(mix.rates_per_cycle, 2.2e9)
            assert est_w == pytest.approx(true_w, rel=0.10), name

    def test_smt_calibration_fits_both_operating_points(self, exec_model):
        power = GroundTruthPower(PowerModelParams())
        est = build_calibrated_estimator(
            power, exec_model, PROGRAMS.values(), random.Random(3), smt=True
        )
        spec = program("bitcnts")
        behavior = spec.build_behavior(power, 2.2e9, random.Random(4))
        mix = behavior.step(0.1)
        # Single thread.
        c1 = exec_model.effective_cycles(0.1, False)
        single = est.power_w(mix.rates_per_cycle * c1, 0.1, base_share=1.0)
        assert single == pytest.approx(61.0, rel=0.08)
        # Dual thread: half base + contended dynamic.
        c2 = exec_model.effective_cycles(0.1, True)
        dual = est.power_w(mix.rates_per_cycle * c2, 0.1, base_share=0.5)
        dyn = power.dynamic_power_w(mix.rates_per_cycle, 2.2e9)
        expected = 10.0 + 0.62 * dyn
        assert dual == pytest.approx(expected, rel=0.08)

    def test_rejects_empty_program_list(self, power, exec_model):
        with pytest.raises(ValueError):
            build_calibrated_estimator(power, exec_model, [], random.Random(0))

    def test_deterministic_given_seed(self, power, exec_model):
        a = build_calibrated_estimator(
            power, exec_model, PROGRAMS.values(), random.Random(9)
        )
        b = build_calibrated_estimator(
            power, exec_model, PROGRAMS.values(), random.Random(9)
        )
        assert a.base_w == b.base_w
        np.testing.assert_array_equal(a.weights_nj, b.weights_nj)


def reference_calibration(
    power,
    exec_model,
    programs,
    rng,
    smt=False,
    slices_per_program=40,
    slice_s=0.1,
    counter_jitter_sigma=0.01,
):
    """The per-slice calibration loop: one CalibrationSample per slice,
    each quantity computed by the scalar model, then the sample fit."""
    samples = []
    freq = exec_model.freq_hz
    for spec in programs:
        behavior = spec.build_behavior(power, freq, rng)
        for s in range(slices_per_program):
            sibling_busy = smt and (s % 2 == 1)
            mix = behavior.step(slice_s)
            cycles = exec_model.effective_cycles(slice_s, sibling_busy)
            deltas = mix.rates_per_cycle * cycles
            if counter_jitter_sigma:
                deltas = deltas * max(0.0, 1.0 + rng.gauss(0.0, counter_jitter_sigma))
            dyn = power.dynamic_power_w(mix.rates_per_cycle, freq)
            if sibling_busy:
                dyn_threads = [dyn * exec_model.smt_thread_factor] * 2
                package_w = power.sample_package_power_w(dyn_threads, False, rng)
                energy = package_w * slice_s / 2.0
                base_share = 0.5
            else:
                package_w = power.sample_package_power_w([dyn], False, rng)
                energy = package_w * slice_s
                base_share = 1.0
            samples.append(
                CalibrationSample(
                    busy_s=slice_s,
                    counter_deltas=np.asarray(deltas, dtype=float),
                    measured_energy_j=energy,
                    base_share=base_share,
                )
            )
    return calibrate_estimator(samples)


MODELS = {
    "default": (PowerModelParams(), ExecutionModel()),
    "custom": (
        PowerModelParams(base_active_w=22.0, noise_sigma=0.03),
        ExecutionModel(freq_hz=1.8e9, smt_thread_factor=0.7),
    ),
}


class TestBatchedCalibration:
    """The batched calibration makes the reference loop's draws in the
    same order and the same float operations, so the fit is bit-equal."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("jitter", [0.01, 0.0])
    @pytest.mark.parametrize("smt", [False, True])
    def test_bit_equal_to_reference_loop(self, model, jitter, smt):
        params, exec_model = MODELS[model]
        power = GroundTruthPower(params)
        for seed in range(16):
            kwargs = dict(smt=smt, counter_jitter_sigma=jitter)
            got = build_calibrated_estimator(
                power, exec_model, PROGRAMS.values(), random.Random(seed), **kwargs
            )
            want = reference_calibration(
                power, exec_model, PROGRAMS.values(), random.Random(seed), **kwargs
            )
            assert got.base_w.hex() == want.base_w.hex(), seed
            assert np.array_equal(got.weights_nj, want.weights_nj), seed

    def test_bit_equal_with_odd_slice_count(self, power, exec_model):
        """The sibling pattern restarts with each program."""
        kwargs = dict(smt=True, slices_per_program=41, slice_s=0.05)
        got = build_calibrated_estimator(
            power, exec_model, PROGRAMS.values(), random.Random(5), **kwargs
        )
        want = reference_calibration(
            power, exec_model, PROGRAMS.values(), random.Random(5), **kwargs
        )
        assert got.base_w.hex() == want.base_w.hex()
        assert np.array_equal(got.weights_nj, want.weights_nj)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_batched_dynamic_power_is_scalar_row_by_row(self, model):
        params, exec_model = MODELS[model]
        power = GroundTruthPower(params)
        freq = exec_model.freq_hz
        rng = random.Random(3)
        calibration_rows = [
            spec.build_behavior(power, freq, rng).step(0.1).rates_per_cycle
            for spec in PROGRAMS.values()
            for _ in range(40)
        ]
        gen = np.random.default_rng(0)
        random_rows = gen.random((20000, N_EVENTS)) * gen.choice(
            [1e-3, 1.0, 30.0], size=(20000, 1)
        )
        for rows in (np.array(calibration_rows), random_rows):
            batched = power.dynamic_power_w_batch(rows, freq)
            scalar = [power.dynamic_power_w(row, freq) for row in rows]
            assert [x.hex() for x in batched.tolist()] == [x.hex() for x in scalar]
