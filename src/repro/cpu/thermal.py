"""Thermal model: one resistor, one capacitor (paper §4.2).

The heat sink is modelled as a thermal resistance R (K/W) to ambient and
a lumped thermal capacitance C (J/K) for chip plus sink.  Chip
temperature follows

    dT/dt = (P - (T - T_ambient) / R) / C

whose step response is the exponential the paper fits during
calibration; the time constant is tau = R * C and the steady state for
constant power P is T_ambient + P * R.

Temperature is tracked per *package* (physical chip) — only physical
processors overheat (§4.7).  Heterogeneous cooling (a package nearer a
fan or air inlet) is expressed by giving packages different R.

The :class:`ThermalDiode` models why the paper cannot attribute energy
per timeslice from temperature alone (§3.1): coarse quantisation and a
multi-millisecond read latency over the system management bus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: Memoised ``exp(-dt/tau)`` decay factors, keyed by (tau, dt).  One
#: entry per distinct heat-sink parameterisation per tick length.
_DECAY_CACHE: dict[tuple[float, float], float] = {}


def rc_decay(tau_s: float, dt_s: float) -> float:
    """The per-interval decay factor of the RC step response.

    Exactly the ``exp`` evaluated inside :meth:`ThermalRC.step`,
    memoised for the batched tick path (the tick length is constant
    within a run, so each package's decay is computed once).
    """
    if tau_s <= 0:
        raise ValueError("time constant must be positive")
    if dt_s < 0:
        raise ValueError("dt must be non-negative")
    key = (tau_s, dt_s)
    decay = _DECAY_CACHE.get(key)
    if decay is None:
        decay = math.exp(-dt_s / tau_s)
        _DECAY_CACHE[key] = decay
    return decay


@dataclass(frozen=True, slots=True)
class ThermalParams:
    """Per-package thermal characteristics.

    Attributes
    ----------
    r_k_per_w:
        Thermal resistance of the heat sink, Kelvin per Watt.
    c_j_per_k:
        Thermal capacitance of chip + sink, Joules per Kelvin.
    ambient_c:
        Ambient air temperature in degrees Celsius.
    """

    r_k_per_w: float = 0.30
    c_j_per_k: float = 66.7
    ambient_c: float = 25.0

    def __post_init__(self) -> None:
        if self.r_k_per_w <= 0:
            raise ValueError("thermal resistance must be positive")
        if self.c_j_per_k <= 0:
            raise ValueError("thermal capacitance must be positive")

    @property
    def tau_s(self) -> float:
        """Time constant of the RC network in seconds."""
        return self.r_k_per_w * self.c_j_per_k

    def steady_state_c(self, power_w: float) -> float:
        """Equilibrium temperature for a constant power draw."""
        return self.ambient_c + power_w * self.r_k_per_w

    def power_for_temperature(self, temp_c: float) -> float:
        """Constant power that settles at ``temp_c`` — i.e. the *maximum
        power* (§4.3) corresponding to a temperature limit."""
        return (temp_c - self.ambient_c) / self.r_k_per_w

    def with_tau(self, tau_s: float) -> "ThermalParams":
        """Same resistance/ambient, capacitance chosen to hit ``tau_s``."""
        if tau_s <= 0:
            raise ValueError("tau must be positive")
        return replace(self, c_j_per_k=tau_s / self.r_k_per_w)


class ThermalRC:
    """Integrates the RC network for one package."""

    __slots__ = ("params", "_temp_c", "_ambient_c", "_r_k_per_w")

    def __init__(self, params: ThermalParams, initial_c: float | None = None) -> None:
        self.params = params
        # Cached for the batched tick paths, which inline step()'s
        # expression (same floats as the params).
        self._ambient_c = params.ambient_c
        self._r_k_per_w = params.r_k_per_w
        self._temp_c = params.ambient_c if initial_c is None else float(initial_c)

    @property
    def temperature_c(self) -> float:
        return self._temp_c

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance ``dt_s`` seconds at constant ``power_w``; return T.

        Uses the exact exponential solution for the interval, so the
        integration is unconditionally stable for any tick length.
        """
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        p = self.params
        target = p.steady_state_c(power_w)
        decay = math.exp(-dt_s / p.tau_s)
        self._temp_c = target + (self._temp_c - target) * decay
        return self._temp_c

    def reset(self, temp_c: float | None = None) -> None:
        self._temp_c = self.params.ambient_c if temp_c is None else float(temp_c)


class ThermalDiode:
    """The on-chip thermal diode as seen through the SM bus.

    Reading is slow (several milliseconds, §3.1) and coarsely quantised,
    which is why per-timeslice energy attribution from temperature is
    impossible — this class exists so tests and examples can demonstrate
    that claim quantitatively.
    """

    def __init__(self, resolution_c: float = 1.0, read_latency_ms: float = 4.0) -> None:
        if resolution_c <= 0:
            raise ValueError("resolution must be positive")
        if read_latency_ms < 0:
            raise ValueError("read latency must be non-negative")
        self.resolution_c = resolution_c
        self.read_latency_ms = read_latency_ms

    def read(self, true_temp_c: float) -> float:
        """Quantised diode reading for the true chip temperature."""
        return math.floor(true_temp_c / self.resolution_c) * self.resolution_c
