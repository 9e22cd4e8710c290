"""Exponential averaging (paper §3.3, Eq. 2).

Two variants:

* :class:`VariablePeriodEwma` — the paper's extension of the standard
  exponential average to samples covering *variable* periods (a task may
  block mid-timeslice or run an extended slice).  A sample spanning
  ``period`` gets the weight a chain of standard-period samples would
  have accumulated: the retained weight of the past is
  ``(1 - p) ** (period / standard_period)`` — shorter periods weight the
  past more, longer periods less, exactly the compensation §3.3 asks for.
* :class:`ThermalEwma` — a fixed-rate average whose weight is derived
  from a *time constant*, used for thermal power (§4.3): choosing
  ``tau`` equal to the RC model's ``R*C`` makes the average's step
  response track the processor temperature's exponential.

:func:`thermal_alpha` memoises the per-``(tau, dt)`` weight (the tick
length is constant within a run, so the ``exp`` is computed once per
distinct time constant instead of once per CPU per tick).  The tick
loops apply it inline, each CPU with the statement
:meth:`ThermalEwma.update` executes: the single-machine fast path
inside its package loop (``System._thermal_step_fast``) and the fleet
engine across its machine axis, so the batched and scalar paths
produce bit-identical values.
"""

from __future__ import annotations

import math

#: Memoised ``1 - exp(-dt/tau)`` weights.  A run touches only a handful
#: of (tau, dt) pairs (one per distinct heat-sink parameterisation), so
#: the cache stays tiny.
_ALPHA_CACHE: dict[tuple[float, float], float] = {}


def thermal_alpha(tau_s: float, dt_s: float) -> float:
    """The :class:`ThermalEwma` blend weight for one ``(tau, dt)`` pair.

    Identical to the expression inside :meth:`ThermalEwma.update`;
    memoised because ``exp`` dominates the scalar update's cost.
    """
    if tau_s <= 0:
        raise ValueError("time constant must be positive")
    if dt_s < 0:
        raise ValueError("dt must be non-negative")
    key = (tau_s, dt_s)
    alpha = _ALPHA_CACHE.get(key)
    if alpha is None:
        alpha = 1.0 - math.exp(-dt_s / tau_s)
        _ALPHA_CACHE[key] = alpha
    return alpha


class VariablePeriodEwma:
    """Exponential average over samples of varying duration.

    Parameters
    ----------
    standard_period_s:
        The reference sampling period (one full timeslice).
    weight_p:
        Weight of the newest sample when it spans exactly one standard
        period (Eq. 2's ``p``).
    initial:
        Starting average; the first update blends against this value.
    """

    __slots__ = ("standard_period_s", "weight_p", "_value", "_initialized")

    def __init__(
        self,
        standard_period_s: float,
        weight_p: float,
        initial: float = 0.0,
    ) -> None:
        if standard_period_s <= 0:
            raise ValueError("standard period must be positive")
        if not 0.0 < weight_p < 1.0:
            raise ValueError("weight p must be in (0, 1)")
        self.standard_period_s = standard_period_s
        self.weight_p = weight_p
        self._value = float(initial)
        self._initialized = initial != 0.0

    @property
    def value(self) -> float:
        return self._value

    def prime(self, value: float) -> None:
        """Seed the average (initial profile from the §4.6 hash table)."""
        self._value = float(value)
        self._initialized = True

    def update(self, sample: float, period_s: float) -> float:
        """Fold in a sample spanning ``period_s`` seconds; return average."""
        if period_s <= 0:
            raise ValueError("period must be positive")
        if not self._initialized:
            # First observation: adopt it outright rather than blending
            # against an arbitrary zero.
            self._value = float(sample)
            self._initialized = True
            return self._value
        retain = (1.0 - self.weight_p) ** (period_s / self.standard_period_s)
        self._value = retain * self._value + (1.0 - retain) * sample
        return self._value

    def __repr__(self) -> str:
        return (
            f"VariablePeriodEwma(value={self._value:.3f}, "
            f"p={self.weight_p}, T={self.standard_period_s})"
        )


class ThermalEwma:
    """Time-constant-calibrated exponential average (thermal power).

    Updated once per tick with the CPU's estimated power; with
    ``tau_s = R * C`` of the thermal model the trajectory of this metric
    follows the processor temperature while keeping the dimension of a
    power — the property §4.3 requires so it can be compared against
    runqueue power and maximum power.
    """

    __slots__ = ("tau_s", "_value")

    def __init__(self, tau_s: float, initial_w: float = 0.0) -> None:
        if tau_s <= 0:
            raise ValueError("time constant must be positive")
        self.tau_s = tau_s
        self._value = float(initial_w)

    @property
    def value_w(self) -> float:
        return self._value

    def prime(self, value_w: float) -> None:
        self._value = float(value_w)

    def update(self, power_w: float, dt_s: float) -> float:
        """Advance ``dt_s`` with the CPU drawing ``power_w``."""
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        alpha = 1.0 - math.exp(-dt_s / self.tau_s)
        self._value += alpha * (power_w - self._value)
        return self._value

    def __repr__(self) -> str:
        return f"ThermalEwma(value={self._value:.2f}W, tau={self.tau_s}s)"
