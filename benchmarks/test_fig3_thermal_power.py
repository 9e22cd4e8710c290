"""Figure 3 — relation between temperature, power, and thermal power.

The paper's illustration: power steps up for some time, then drops.
Temperature (true RC) rises and falls exponentially; *thermal power* —
the EWMA calibrated to the RC time constant (§4.3) — follows the same
normalised trajectory while keeping the dimension of a power.

Shape targets: thermal power's normalised curve coincides with the
temperature's (max deviation ~0); both lag the power step; thermal
power returns toward the baseline after the step ends."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import ascii_chart
from repro.core.ewma import ThermalEwma
from repro.cpu.thermal import ThermalParams, ThermalRC

DT = 0.1
STEP_START_S, STEP_END_S, TOTAL_S = 30.0, 150.0, 300.0
P_LOW, P_HIGH = 20.0, 60.0


def test_fig3_temperature_power_thermal_power(capsys):
    params = ThermalParams(r_k_per_w=0.30, c_j_per_k=66.7, ambient_c=25.0)
    rc = ThermalRC(params, initial_c=params.steady_state_c(P_LOW))
    ewma = ThermalEwma(tau_s=params.tau_s, initial_w=P_LOW)
    n = int(TOTAL_S / DT)
    times = np.arange(n) * DT
    power = np.where(
        (times >= STEP_START_S) & (times < STEP_END_S), P_HIGH, P_LOW
    )
    temp = np.empty(n)
    thermal = np.empty(n)
    for i in range(n):
        temp[i] = rc.step(power[i], DT)
        thermal[i] = ewma.update(power[i], DT)

    chart = ascii_chart(
        [
            ("power [W]", power),
            ("thermal power [W]", thermal),
            ("temperature (normalised to W)", (temp - 25.0) / 0.30),
        ],
        height=14,
        title="Figure 3: power step -> temperature and thermal power lag",
        y_label="time ->",
    )
    emit(capsys, "fig3_thermal_power", chart)

    # Thermal power tracks temperature exactly (same normalised curve).
    temp_as_power = (temp - 25.0) / 0.30
    np.testing.assert_allclose(thermal, temp_as_power, atol=1e-6)

    step_on = int(STEP_START_S / DT)
    step_off = int(STEP_END_S / DT)
    # Lag: right after the step thermal power is still near the old level.
    assert thermal[step_on + 10] < P_LOW + 0.2 * (P_HIGH - P_LOW)
    # It approaches the new level before the step ends (120 s = 6 tau).
    assert thermal[step_off - 1] > P_HIGH - 1.0
    # And decays back after the drop.
    assert thermal[-1] < P_LOW + 2.0
    # Power itself switches instantly; thermal power never overshoots it.
    assert thermal.max() <= P_HIGH + 1e-9
    assert thermal.min() >= P_LOW - 1e-9
