"""Processor power: ground truth and the counter-based linear estimator.

Two models deliberately differ (DESIGN.md §2):

* :class:`GroundTruthPower` plays the role of the authors' multimeter.
  It contains a mild nonlinear term and measurement noise, so it is *not*
  exactly representable by the estimator.
* :class:`LinearEnergyEstimator` is the paper's Eq. 1,

      E = sum_i a_i * c_i   (+ a base term proportional to busy time,
                             standing in for a clock-cycle counter),

  with weights obtained by least squares over calibration runs
  (:func:`calibrate_estimator`) exactly as the authors calibrate against
  multimeter readings.  Its error against ground truth is therefore a
  measured, nonzero quantity that the tests hold below the paper's 10 %.

Power accounting conventions (single-thread numbers match Table 2):

* A fully halted package draws ``halted_package_w`` (13.6 W, §6.4).
* An active package draws ``base_active_w`` plus each running thread's
  dynamic power; a halted sibling of a running thread adds nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.events import N_EVENTS


def _default_weights() -> tuple[float, ...]:
    # nJ per event: UOPS, ALU, FP, MEM, L2_MISS, BRANCH
    return (2.0, 3.5, 7.0, 2.5, 60.0, 1.5)


@dataclass(frozen=True, slots=True)
class PowerModelParams:
    """Parameters of the ground-truth power model.

    Attributes
    ----------
    weights_nj:
        True energy per event occurrence, nanojoules, in
        :data:`repro.cpu.events.EVENT_LIST` order.
    base_active_w:
        Static power of an active (non-halted) package: clock tree,
        leakage, fetch machinery.
    halted_package_w:
        Power of a package with all threads executing ``hlt``
        (the paper measures 13.6 W on the P4 Xeon).
    nonlinear_coeff / nonlinear_scale_w:
        Ground truth adds ``coeff * dyn^2 / scale`` — a mild
        superlinearity the linear estimator cannot represent.
    noise_sigma:
        Multiplicative Gaussian noise on each multimeter sample.
    """

    weights_nj: tuple[float, ...] = field(default_factory=_default_weights)
    base_active_w: float = 20.0
    halted_package_w: float = 13.6
    nonlinear_coeff: float = 0.02
    nonlinear_scale_w: float = 50.0
    noise_sigma: float = 0.015

    def __post_init__(self) -> None:
        if len(self.weights_nj) != N_EVENTS:
            raise ValueError(
                f"need {N_EVENTS} event weights, got {len(self.weights_nj)}"
            )
        if any(w < 0 for w in self.weights_nj):
            raise ValueError("event weights must be non-negative")
        if self.base_active_w < self.halted_package_w:
            raise ValueError("active base power must be >= halted power")


class GroundTruthPower:
    """What the multimeter reads (up to noise)."""

    def __init__(self, params: PowerModelParams) -> None:
        self.params = params
        self._weights = np.asarray(params.weights_nj, dtype=float)

    def dynamic_power_w(self, rates_per_cycle: np.ndarray, freq_hz: float) -> float:
        """Noise-free dynamic power of one thread executing a mix.

        ``rates_per_cycle`` are events per core cycle; power is
        ``sum_i w_i[nJ] * rate_i * f[Hz] * 1e-9`` plus the nonlinearity.
        """
        linear = float(self._weights @ rates_per_cycle) * freq_hz * 1e-9
        p = self.params
        return linear + p.nonlinear_coeff * linear * linear / p.nonlinear_scale_w

    def dynamic_power_w_batch(self, rates: np.ndarray, freq_hz: float) -> np.ndarray:
        """:meth:`dynamic_power_w` of each row of ``rates``, bit-equal row by
        row: ``matmul`` by ``(n, 1, N_EVENTS)`` rows runs the scalar form's
        1-D dot per row, where ``rates @ weights`` (gemv) can differ."""
        linear = np.matmul(rates[:, None, :], self._weights)[:, 0] * freq_hz * 1e-9
        p = self.params
        return linear + p.nonlinear_coeff * linear * linear / p.nonlinear_scale_w

    def sample_package_power_w(
        self,
        dynamic_w_per_thread: list[float],
        all_halted: bool,
        rng: random.Random,
    ) -> float:
        """One noisy multimeter sample of a package's power draw."""
        p = self.params
        if all_halted:
            clean = p.halted_package_w
        else:
            clean = p.base_active_w + sum(dynamic_w_per_thread)
        return clean * (1.0 + rng.gauss(0.0, p.noise_sigma))

    def package_power_w_batch(self, dyn_w: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """:meth:`sample_package_power_w` of active packages, given each
        sample's summed thread power and its ``gauss(0.0, noise_sigma)``."""
        return (self.params.base_active_w + dyn_w) * (1.0 + noise)

    def rates_for_dynamic_power(
        self, flavor: np.ndarray, target_dynamic_w: float, freq_hz: float
    ) -> np.ndarray:
        """Scale a relative event-mix ``flavor`` to hit a dynamic power.

        Inverts the *linear* part of the model; the nonlinearity is
        compensated iteratively so the ground-truth dynamic power of the
        returned rates equals ``target_dynamic_w`` to within 1e-9 W.
        Raises :class:`ValueError` for a target the iteration cannot
        reach with non-negative rates (very large targets).
        """
        flavor = np.asarray(flavor, dtype=float)
        if flavor.shape != (N_EVENTS,):
            raise ValueError(f"flavor must have shape ({N_EVENTS},)")
        if np.any(flavor < 0) or not np.any(flavor > 0):
            raise ValueError("flavor must be non-negative and non-zero")
        if target_dynamic_w < 0:
            raise ValueError("target dynamic power must be non-negative")
        unit_w = float(self._weights @ flavor) * freq_hz * 1e-9
        if unit_w <= 0:
            raise ValueError("flavor has zero weighted power; cannot scale")
        k = target_dynamic_w / unit_w
        for _ in range(60):
            achieved = self.dynamic_power_w(flavor * k, freq_hz)
            error = achieved - target_dynamic_w
            if abs(error) < 1e-9:
                break
            k -= error / unit_w
        if not abs(error) < 1e-9 or k < 0:
            raise ValueError(
                f"cannot solve event rates for a {target_dynamic_w} W dynamic "
                f"target: residual {error} W at scale {k}"
            )
        return flavor * k


class LinearEnergyEstimator:
    """The paper's Eq. 1 estimator with calibrated weights.

    ``base_w`` multiplies busy time, standing in for counting clock
    cycles (a countable event on the P4); ``weights_nj`` multiply the
    per-event counter deltas.
    """

    def __init__(self, base_w: float, weights_nj: np.ndarray) -> None:
        weights_nj = np.asarray(weights_nj, dtype=float)
        if weights_nj.shape != (N_EVENTS,):
            raise ValueError(f"weights must have shape ({N_EVENTS},)")
        self.base_w = float(base_w)
        self.weights_nj = weights_nj

    def energy_j(
        self, counter_deltas: np.ndarray, busy_s: float, base_share: float = 1.0
    ) -> float:
        """Estimated energy for an execution interval.

        Parameters
        ----------
        counter_deltas:
            Per-event counter increments over the interval.
        busy_s:
            Time the thread actually executed (excludes halted time).
        base_share:
            Fraction of the package's static power attributed to this
            thread: 1 with an idle SMT sibling, 1/n with n busy threads
            sharing the chip.  The kernel knows sibling occupancy, so
            this is observable at estimation time (§4.7).
        """
        if busy_s < 0:
            raise ValueError("busy time must be non-negative")
        if not 0.0 <= base_share <= 1.0:
            raise ValueError("base share must be in [0, 1]")
        return (
            self.base_w * busy_s * base_share
            + float(self.weights_nj @ counter_deltas) * 1e-9
        )

    def power_w(
        self, counter_deltas: np.ndarray, busy_s: float, base_share: float = 1.0
    ) -> float:
        """Estimated average power over a non-empty interval."""
        if busy_s <= 0:
            raise ValueError("busy time must be positive for a power estimate")
        return self.energy_j(counter_deltas, busy_s, base_share) / busy_s

    # -- per-tick factored form (the simulator's hot path) ---------------------
    def unit_energy_nj(self, counter_deltas: np.ndarray) -> float:
        """Weighted event energy in nanojoules, before jitter/DVFS scaling.

        The tick loop factors Eq. 1 as ``base + unit * scale``: counter
        jitter and the DVFS voltage correction are multiplicative on the
        whole event term, so the dot product over the *unjittered*
        increments can be computed once per (mix, cycles) pair and
        rescaled each tick.  Both the scalar and the batched tick paths
        use this factored form, which keeps them bit-identical.
        """
        return float(self.weights_nj @ counter_deltas)

    def tick_energy_j(
        self, unit_nj: float, scale: float, busy_s: float, base_share: float
    ) -> float:
        """Eq. 1 energy for one tick from a precomputed unit energy.

        ``scale`` carries the tick's multiplicative factors (counter
        jitter, and ``freq_scale**2`` under DVFS).
        """
        return self.base_w * busy_s * base_share + unit_nj * scale * 1e-9


class TickEnergyCache:
    """Memoised per-(mix, cycles) tick quantities for the batched path.

    A task's instruction mix object is immutable and changes only on
    phase transitions or wobble resamples (every ~10 ticks), while the
    per-tick cycle count takes one of a handful of values (solo, SMT,
    DVFS-scaled).  Each entry carries everything the execution step
    derives purely from (mix, cycles): the unjittered counter increments
    ``rates * cycles``, their weighted unit energy, the mix's
    ground-truth dynamic power, and the largest increment, which bounds
    how soon a counter register can wrap
    (:func:`repro.cpu.pmc.wrap_horizon`) — removing the per-tick numpy
    allocation and two dot products from the hot loop.

    Entries key on ``id(mix)`` and verify identity on lookup while
    holding a strong reference to the mix, so a recycled ``id`` can
    never alias a dead entry (same discipline as the dynamic-power
    cache in :class:`repro.system.System`).  :meth:`lookup` is the one
    way in; the single-machine fast path keeps a one-entry memo per CPU
    in front of it.
    """

    #: entry layout: (mix, base_increments, unit_energy_nj,
    #: dynamic_power_w, max_increment)
    Entry = tuple[object, np.ndarray, float, float, float]

    def __init__(
        self,
        estimator: LinearEnergyEstimator,
        power: GroundTruthPower,
        freq_hz: float,
    ) -> None:
        self._estimator = estimator
        self._power = power
        self._freq_hz = freq_hz
        self._cache: dict[tuple[int, float], TickEnergyCache.Entry] = {}

    def lookup(self, mix, cycles: float) -> "TickEnergyCache.Entry":
        """The entry for a mix at a cycle count (cached or computed)."""
        key = (id(mix), cycles)
        entry = self._cache.get(key)
        if entry is not None and entry[0] is mix:
            return entry
        base_increments = mix.rates_per_cycle * cycles
        unit_nj = self._estimator.unit_energy_nj(base_increments)
        dyn_w = self._power.dynamic_power_w(mix.rates_per_cycle, self._freq_hz)
        if len(self._cache) > 8192:
            self._cache.clear()
        max_inc = float(base_increments.max())
        entry = (mix, base_increments, unit_nj, dyn_w, max_inc)
        self._cache[key] = entry
        return entry


@dataclass(frozen=True, slots=True)
class CalibrationSample:
    """One calibration observation: counters + multimeter energy.

    ``base_share`` records the sibling occupancy during the sample (1
    for a lone thread, 0.5 for an SMT pair), matching the attribution
    the estimator will use online.
    """

    busy_s: float
    counter_deltas: np.ndarray
    measured_energy_j: float
    base_share: float = 1.0


def calibrate_estimator(samples: list[CalibrationSample]) -> LinearEnergyEstimator:
    """Least-squares fit of Eq. 1 weights against measured energies.

    This mirrors the authors' procedure: run test applications, record
    event counts and multimeter energy, and solve the linear system
    (here in the least-squares sense as the system is overdetermined).
    """
    return fit_estimator(
        [s.busy_s * s.base_share for s in samples],
        [s.counter_deltas for s in samples],
        [s.measured_energy_j for s in samples],
    )


def fit_estimator(static_s, counter_deltas, energy_j) -> LinearEnergyEstimator:
    """:func:`calibrate_estimator` over arrays with one row per sample: busy
    time times base share, counter deltas, and measured energy."""
    if len(energy_j) < N_EVENTS + 1:
        raise ValueError(
            f"need at least {N_EVENTS + 1} samples to fit "
            f"{N_EVENTS + 1} coefficients, got {len(energy_j)}"
        )
    a = np.empty((len(energy_j), N_EVENTS + 1), dtype=float)
    a[:, 0] = static_s
    a[:, 1:] = np.asarray(counter_deltas, dtype=float) * 1e-9
    coeffs, *_ = np.linalg.lstsq(a, np.asarray(energy_j, dtype=float), rcond=None)
    weights = np.clip(coeffs[1:], 0.0, None)
    return LinearEnergyEstimator(base_w=float(coeffs[0]), weights_nj=weights)
