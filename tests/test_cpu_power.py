"""Unit tests for the power models and Eq. 1 estimator calibration."""

import random

import numpy as np
import pytest

from repro.cpu.events import N_EVENTS
from repro.cpu.power import (
    CalibrationSample,
    GroundTruthPower,
    LinearEnergyEstimator,
    PowerModelParams,
    calibrate_estimator,
)


@pytest.fixture
def power():
    return GroundTruthPower(PowerModelParams())


class TestPowerModelParams:
    def test_defaults_valid(self):
        params = PowerModelParams()
        assert len(params.weights_nj) == N_EVENTS
        assert params.halted_package_w == pytest.approx(13.6)

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ValueError, match="weights"):
            PowerModelParams(weights_nj=(1.0, 2.0))

    def test_rejects_negative_weight(self):
        weights = tuple([-1.0] + [1.0] * (N_EVENTS - 1))
        with pytest.raises(ValueError):
            PowerModelParams(weights_nj=weights)

    def test_rejects_active_below_halted(self):
        with pytest.raises(ValueError):
            PowerModelParams(base_active_w=10.0, halted_package_w=13.6)


class TestDynamicPower:
    def test_zero_rates_zero_power(self, power):
        assert power.dynamic_power_w(np.zeros(N_EVENTS), 2.2e9) == 0.0

    def test_scales_with_frequency(self, power):
        rates = np.full(N_EVENTS, 0.1)
        slow = power.dynamic_power_w(rates, 1.0e9)
        fast = power.dynamic_power_w(rates, 2.0e9)
        assert fast > 1.9 * slow  # superlinear due to the nonlinearity

    def test_nonlinearity_positive(self):
        linear_only = GroundTruthPower(PowerModelParams(nonlinear_coeff=0.0))
        with_nl = GroundTruthPower(PowerModelParams(nonlinear_coeff=0.02))
        rates = np.full(N_EVENTS, 0.2)
        assert with_nl.dynamic_power_w(rates, 2.2e9) > linear_only.dynamic_power_w(
            rates, 2.2e9
        )


class TestRatesForDynamicPower:
    def test_round_trip_exact(self, power):
        flavor = np.array([1.8, 1.6, 0.0, 0.1, 0.001, 0.35])
        rates = power.rates_for_dynamic_power(flavor, 41.0, 2.2e9)
        assert power.dynamic_power_w(rates, 2.2e9) == pytest.approx(41.0, abs=1e-6)

    def test_preserves_flavor_direction(self, power):
        flavor = np.array([1.0, 0.5, 0.0, 0.25, 0.0, 0.125])
        rates = power.rates_for_dynamic_power(flavor, 20.0, 2.2e9)
        np.testing.assert_allclose(rates / rates[0], flavor / flavor[0])

    def test_zero_target_gives_zero_rates(self, power):
        rates = power.rates_for_dynamic_power(np.ones(N_EVENTS), 0.0, 2.2e9)
        np.testing.assert_allclose(rates, 0.0, atol=1e-12)

    def test_rejects_negative_target(self, power):
        with pytest.raises(ValueError):
            power.rates_for_dynamic_power(np.ones(N_EVENTS), -5.0, 2.2e9)

    def test_rejects_zero_flavor(self, power):
        with pytest.raises(ValueError):
            power.rates_for_dynamic_power(np.zeros(N_EVENTS), 10.0, 2.2e9)

    def test_rejects_bad_shape(self, power):
        with pytest.raises(ValueError):
            power.rates_for_dynamic_power(np.ones(3), 10.0, 2.2e9)

    @pytest.mark.parametrize("target", [1100.0, 2000.0, 3000.0])
    def test_rejects_target_the_iteration_misses(self, power, target):
        flavor = np.array([0.8, 0.40, 0.0, 0.45, 0.004, 0.30])
        with pytest.raises(ValueError, match=f"{target} W dynamic target: residual"):
            power.rates_for_dynamic_power(flavor, target, 2.2e9)

    def test_rejects_negative_scale(self, power):
        """5 kW with the ALU flavour meets the tolerance, but only on the
        parabola's negative branch, with negative event rates."""
        flavor = np.array([1.8, 1.6, 0.0, 0.1, 0.001, 0.35])
        with pytest.raises(ValueError, match="5000.0 W dynamic target.*scale -"):
            power.rates_for_dynamic_power(flavor, 5000.0, 2.2e9)

    @pytest.mark.parametrize("target", [1e-6, 1000.0])
    def test_reachable_targets_still_solve(self, power, target):
        flavor = np.array([0.8, 0.40, 0.0, 0.45, 0.004, 0.30])
        rates = power.rates_for_dynamic_power(flavor, target, 2.2e9)
        assert np.all(rates >= 0)
        assert abs(power.dynamic_power_w(rates, 2.2e9) - target) < 1e-9


class TestPackagePowerSampling:
    def test_halted_package_near_halted_power(self, power):
        rng = random.Random(0)
        samples = [power.sample_package_power_w([], True, rng) for _ in range(200)]
        assert np.mean(samples) == pytest.approx(13.6, rel=0.02)

    def test_active_package_includes_base_and_dynamic(self, power):
        rng = random.Random(0)
        samples = [
            power.sample_package_power_w([30.0], False, rng) for _ in range(200)
        ]
        assert np.mean(samples) == pytest.approx(50.0, rel=0.02)

    def test_two_threads_add(self, power):
        rng = random.Random(0)
        samples = [
            power.sample_package_power_w([20.0, 25.0], False, rng)
            for _ in range(200)
        ]
        assert np.mean(samples) == pytest.approx(65.0, rel=0.02)

    def test_noise_has_configured_magnitude(self):
        power = GroundTruthPower(PowerModelParams(noise_sigma=0.05))
        rng = random.Random(1)
        samples = np.array(
            [power.sample_package_power_w([30.0], False, rng) for _ in range(2000)]
        )
        assert np.std(samples) / np.mean(samples) == pytest.approx(0.05, rel=0.15)


class TestLinearEnergyEstimator:
    def test_energy_combines_base_and_counts(self):
        est = LinearEnergyEstimator(base_w=20.0, weights_nj=np.ones(N_EVENTS))
        deltas = np.full(N_EVENTS, 1e9)  # 1e9 events x 1 nJ = 1 J each
        assert est.energy_j(deltas, busy_s=0.1) == pytest.approx(2.0 + N_EVENTS)

    def test_base_share_scales_static_term(self):
        est = LinearEnergyEstimator(base_w=20.0, weights_nj=np.zeros(N_EVENTS))
        full = est.energy_j(np.zeros(N_EVENTS), 0.1, base_share=1.0)
        half = est.energy_j(np.zeros(N_EVENTS), 0.1, base_share=0.5)
        assert half == pytest.approx(full / 2)

    def test_power_is_energy_over_time(self):
        est = LinearEnergyEstimator(base_w=40.0, weights_nj=np.zeros(N_EVENTS))
        assert est.power_w(np.zeros(N_EVENTS), 0.5) == pytest.approx(40.0)

    def test_rejects_negative_busy_time(self):
        est = LinearEnergyEstimator(base_w=1.0, weights_nj=np.zeros(N_EVENTS))
        with pytest.raises(ValueError):
            est.energy_j(np.zeros(N_EVENTS), -0.1)

    def test_rejects_zero_busy_for_power(self):
        est = LinearEnergyEstimator(base_w=1.0, weights_nj=np.zeros(N_EVENTS))
        with pytest.raises(ValueError):
            est.power_w(np.zeros(N_EVENTS), 0.0)

    def test_rejects_bad_base_share(self):
        est = LinearEnergyEstimator(base_w=1.0, weights_nj=np.zeros(N_EVENTS))
        with pytest.raises(ValueError):
            est.energy_j(np.zeros(N_EVENTS), 0.1, base_share=1.5)

    def test_rejects_wrong_weight_shape(self):
        with pytest.raises(ValueError):
            LinearEnergyEstimator(base_w=1.0, weights_nj=np.zeros(2))


class TestCalibration:
    def _synthesise(self, power, rng, n=60, base_share=1.0, factor=1.0):
        samples = []
        for _ in range(n):
            rates = np.abs(np.array([rng.random() for _ in range(N_EVENTS)]))
            cycles = 2.2e9 * 0.1 * factor
            dyn = power.dynamic_power_w(rates, 2.2e9) * factor
            package = power.sample_package_power_w([dyn], False, rng)
            energy = package * 0.1 * base_share if base_share < 1 else package * 0.1
            samples.append(
                CalibrationSample(
                    busy_s=0.1,
                    counter_deltas=rates * cycles,
                    measured_energy_j=energy,
                    base_share=base_share,
                )
            )
        return samples

    def test_recovers_true_weights(self):
        params = PowerModelParams(nonlinear_coeff=0.0, noise_sigma=0.0)
        power = GroundTruthPower(params)
        rng = random.Random(5)
        est = calibrate_estimator(self._synthesise(power, rng))
        assert est.base_w == pytest.approx(params.base_active_w, rel=0.02)
        np.testing.assert_allclose(est.weights_nj, params.weights_nj, rtol=0.02)

    def test_estimation_error_below_ten_percent_with_noise(self):
        """The paper's §3.2 claim: estimation error < 10 %."""
        power = GroundTruthPower(PowerModelParams())
        rng = random.Random(7)
        est = calibrate_estimator(self._synthesise(power, rng, n=120))
        errors = []
        for _ in range(200):
            rates = np.abs(np.array([rng.random() for _ in range(N_EVENTS)]))
            dyn = power.dynamic_power_w(rates, 2.2e9)
            true_w = 20.0 + dyn
            est_w = est.power_w(rates * 2.2e9 * 0.1, 0.1)
            errors.append(abs(est_w - true_w) / true_w)
        assert np.mean(errors) < 0.10

    def test_rejects_too_few_samples(self):
        power = GroundTruthPower(PowerModelParams())
        rng = random.Random(0)
        samples = self._synthesise(power, rng, n=3)
        with pytest.raises(ValueError, match="samples"):
            calibrate_estimator(samples)

    def test_weights_clipped_non_negative(self):
        power = GroundTruthPower(PowerModelParams())
        rng = random.Random(9)
        est = calibrate_estimator(self._synthesise(power, rng, n=40))
        assert np.all(est.weights_nj >= 0)
