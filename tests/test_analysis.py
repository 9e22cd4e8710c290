"""Unit tests for analysis helpers (stats, time series, reporting)."""

import numpy as np
import pytest

from repro.analysis.report import ascii_chart, format_table
from repro.analysis.stats import phase_change_stats
from repro.analysis.timeseries import (
    band_width,
    fit_exponential_rise,
    resample,
    steady_window,
)
from repro.sim.trace import TimeSeries


def series_of(name, times, values):
    s = TimeSeries(name)
    for t, v in zip(times, values):
        s.append(t, v)
    return s


class TestPhaseChangeStats:
    def test_constant_power_zero_changes(self):
        stats = phase_change_stats("x", np.full(100, 50.0))
        assert stats.max_change == 0.0
        assert stats.avg_change == 0.0
        assert stats.n_slices == 100

    def test_single_jump(self):
        powers = np.array([40.0] * 10 + [60.0] * 10)
        stats = phase_change_stats("x", powers)
        assert stats.max_change == pytest.approx(0.5)
        assert stats.avg_change == pytest.approx(0.5 / 19)

    def test_change_is_relative_to_previous(self):
        stats = phase_change_stats("x", np.array([50.0, 25.0]))
        assert stats.max_change == pytest.approx(0.5)
        stats = phase_change_stats("x", np.array([25.0, 50.0]))
        assert stats.max_change == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_change_stats("x", np.array([50.0]))
        with pytest.raises(ValueError):
            phase_change_stats("x", np.array([50.0, 0.0]))


class TestBandWidth:
    def test_constant_offset_curves(self):
        times = np.arange(10, dtype=float)
        a = series_of("a", times, np.full(10, 40.0))
        b = series_of("b", times, np.full(10, 45.0))
        widths = band_width([a, b])
        np.testing.assert_allclose(widths, 5.0)

    def test_skip_initial_transient(self):
        times = np.arange(10, dtype=float)
        a = series_of("a", times, np.linspace(0, 40, 10))
        b = series_of("b", times, np.full(10, 40.0))
        widths = band_width([a, b], skip_s=8.0)
        assert widths.max() < 10.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            band_width([])


class TestResampleAndWindow:
    def test_resample_interpolates(self):
        s = series_of("s", [0.0, 1.0], [0.0, 10.0])
        out = resample(s, np.array([0.5]))
        np.testing.assert_allclose(out, [5.0])

    def test_resample_needs_two_points(self):
        with pytest.raises(ValueError):
            resample(series_of("s", [0.0], [1.0]), np.array([0.0]))

    def test_steady_window_takes_tail(self):
        s = series_of("s", np.arange(10.0), np.arange(10.0))
        np.testing.assert_allclose(steady_window(s, 0.3), [7.0, 8.0, 9.0])

    def test_steady_window_validation(self):
        with pytest.raises(ValueError):
            steady_window(series_of("s", [0.0], [1.0]), 0.0)


class TestExponentialFit:
    def test_recovers_known_parameters(self):
        """The §4.2 calibration procedure on clean data."""
        times = np.linspace(0, 100, 300)
        tau, initial, final = 20.0, 25.0, 45.0
        values = final + (initial - final) * np.exp(-times / tau)
        fit_initial, fit_final, fit_tau = fit_exponential_rise(times, values)
        assert fit_initial == pytest.approx(initial, rel=0.02)
        assert fit_final == pytest.approx(final, rel=0.02)
        assert fit_tau == pytest.approx(tau, rel=0.05)

    def test_robust_to_noise(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0, 120, 400)
        values = 45.0 - 20.0 * np.exp(-times / 20.0) + rng.normal(0, 0.3, 400)
        _, final, tau = fit_exponential_rise(times, values)
        assert final == pytest.approx(45.0, rel=0.05)
        assert tau == pytest.approx(20.0, rel=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exponential_rise(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


class TestFormatTable:
    def test_renders_headers_and_rows(self):
        text = format_table(["cpu", "pct"], [[0, 51.5], [3, 54.1]], title="Table 3")
        assert "Table 3" in text
        assert "cpu" in text
        assert "51.50" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_alignment_consistent(self):
        text = format_table(["name", "v"], [["long-name-here", 1.0], ["x", 2.0]])
        lines = text.splitlines()
        assert len({len(line) for line in lines[0:1] + lines[2:]}) == 1


class TestCurveBandAndThrottleTable:
    @pytest.fixture(scope="class")
    def pair(self):
        from repro.api import run_simulation
        from repro.config import SystemConfig
        from repro.cpu.thermal import ThermalParams
        from repro.cpu.throttle import ThrottleConfig
        from repro.cpu.topology import MachineSpec
        from repro.workloads.generator import mixed_table2_workload

        config = SystemConfig(
            machine=MachineSpec.smp(4),
            thermal=ThermalParams(r_k_per_w=0.35),
            temp_limit_c=38.0,
            throttle=ThrottleConfig(enabled=True),
            seed=6,
        )
        wl = mixed_table2_workload(2)
        return (
            run_simulation(config, wl, policy="baseline", duration_s=60),
            run_simulation(config, wl, policy="energy", duration_s=60),
        )

    def test_curve_band_fields(self, pair):
        from repro.analysis.stats import curve_band

        band = curve_band(pair[0], skip_s=20.0)
        assert band["max_width_w"] >= band["mean_width_w"] >= 0
        assert band["peak_thermal_power_w"] > 20.0

    def test_throttle_table_filters_untouched_cpus(self, pair):
        from repro.analysis.stats import throttle_table

        rows = throttle_table(pair[0], pair[1], min_pct=0.5)
        for row in rows:
            assert row.disabled_pct >= 0.5 or row.enabled_pct >= 0.5


class TestTaskTable:
    def test_renders_per_task_rows(self):
        from repro.analysis.report import task_table
        from repro.api import run_simulation
        from repro.config import SystemConfig
        from repro.cpu.topology import MachineSpec
        from repro.workloads.generator import mixed_table2_workload

        config = SystemConfig(
            machine=MachineSpec.smp(2), max_power_per_cpu_w=100.0, seed=1
        )
        result = run_simulation(config, mixed_table2_workload(1), duration_s=10)
        text = task_table(result)
        assert "bitcnts" in text
        assert "profile [W]" in text
        assert text.count("\n") >= 7  # header + 6 tasks


class TestAsciiChart:
    def test_contains_scale_and_legend(self):
        values = np.linspace(20, 60, 50)
        text = ascii_chart([("cpu0", values)], title="thermal power")
        assert "thermal power" in text
        assert "60.0" in text
        assert "20.0" in text
        assert "a=cpu0" in text

    def test_multiple_series_get_distinct_glyphs(self):
        a = np.full(20, 30.0)
        b = np.full(20, 50.0)
        text = ascii_chart([("x", a), ("y", b)])
        assert "a=x" in text and "b=y" in text

    def test_flat_series_does_not_crash(self):
        text = ascii_chart([("flat", np.full(10, 5.0))])
        assert "flat" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart([])
