"""Event monitoring counter banks.

One :class:`CounterBank` per logical CPU — the Pentium 4's counters can
attribute most events to the logical CPU that caused them (§4.7), which
is what makes per-task energy estimation possible under SMT.

Counts accumulate monotonically but the hardware registers are finite
(40 bits on the Pentium 4), so they wrap; consumers take snapshots at
task-switch and timeslice boundaries and compute wrap-aware deltas,
exactly as the paper's in-kernel estimator must (§5).  A 40-bit counter
at a few events per 2.2 GHz cycle wraps every couple of minutes, so
wraparound is routine, not exceptional.
"""

from __future__ import annotations

import random

import numpy as np

from repro.cpu.events import N_EVENTS

#: Width of the Pentium 4's performance counters.
COUNTER_BITS = 40

#: Bound on |z| of one ``random.gauss`` draw: Box-Muller scales by
#: ``sqrt(-2 ln(1 - u))`` and ``1 - u >= 2**-53``, so
#: ``|z| <= sqrt(106 ln 2) = 8.5717...``.
GAUSS_Z_BOUND = 8.58


def jitter_bound(sigma: float) -> float:
    """Largest factor :meth:`CounterBank.draw_jitter` can return."""
    return 1.0 + GAUSS_Z_BOUND * sigma


def wrap_horizon(counts: np.ndarray, modulus: float, max_increment: float) -> int:
    """Ticks the registers can be credited before one could wrap.

    ``counts`` was just reduced below ``modulus`` and each later tick
    adds at most ``max_increment`` to any register, once.  For the
    returned number of ticks every register stays below the modulus, so
    ``counts %= modulus`` is the bitwise identity and may be skipped;
    the tick after them must reduce again.  Each addition below the
    modulus rounds up by at most ``modulus * 2**-53``, which widens the
    per-tick step, and three spare steps absorb the rounding of the
    division.  A NaN register (a corrupted counter) gives 0: reduce
    every tick.  Both tick engines use this one rule.
    """
    top = float(counts.max())
    if not top < modulus:
        return 0
    step = max(max_increment, 1.0) + modulus * 2.0**-53
    return max(0, int((modulus - top) / step) - 3)


class CounterSnapshot:
    """Immutable copy of a counter bank at one instant."""

    __slots__ = ("values", "modulus")

    def __init__(self, values: np.ndarray, modulus: float = float(2**COUNTER_BITS)):
        self.values = values
        self.modulus = modulus

    def delta_since(self, earlier: "CounterSnapshot") -> np.ndarray:
        """Per-event increments between ``earlier`` and this snapshot.

        Handles a single wraparound per counter, as the kernel does by
        reading at least once per wrap period.
        """
        if earlier.modulus != self.modulus:
            raise ValueError("snapshots from banks with different widths")
        return (self.values - earlier.values) % self.modulus


class CounterBank:
    """Monotonic per-logical-CPU event counters.

    The simulator credits counts from the running task's instruction mix
    via :meth:`account`; a small multiplicative jitter models sampling
    effects (counter rollover handling, interrupt skid) so counter-based
    estimates are not artificially exact.
    """

    __slots__ = ("cpu_id", "_counts", "_jitter_sigma", "_rng", "_modulus")

    def __init__(
        self,
        cpu_id: int,
        rng: random.Random,
        jitter_sigma: float = 0.01,
        counter_bits: int = COUNTER_BITS,
    ) -> None:
        if jitter_sigma < 0:
            raise ValueError("jitter sigma must be non-negative")
        if counter_bits < 8:
            raise ValueError("counters must be at least 8 bits wide")
        self.cpu_id = cpu_id
        self._counts = np.zeros(N_EVENTS, dtype=float)
        self._jitter_sigma = jitter_sigma
        self._rng = rng
        self._modulus = float(2**counter_bits)

    def account(self, rates_per_cycle: np.ndarray, cycles: float) -> np.ndarray:
        """Credit events for ``cycles`` executed at the given mix rates.

        Returns the (jittered) increments actually credited — the same
        values a consumer would obtain by snapshotting around the call.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        jitter = self.draw_jitter(cycles)
        increments = rates_per_cycle * cycles
        if jitter != 1.0:
            increments = increments * jitter
        self._counts = (self._counts + increments) % self._modulus
        return increments

    def draw_jitter(self, cycles: float) -> float:
        """The multiplicative jitter factor for one accounting interval.

        Split out of :meth:`account` so the batched tick path can reuse
        a cached unjittered increment vector: the tick loop draws the
        factor here (consuming the same RNG sequence as :meth:`account`)
        and credits ``base_increments * jitter`` via :meth:`credit`.
        """
        if self._jitter_sigma and cycles > 0:
            return max(0.0, 1.0 + self._rng.gauss(0.0, self._jitter_sigma))
        return 1.0

    def credit(self, increments: np.ndarray) -> None:
        """Fold precomputed per-event increments into the counters."""
        counts = self._counts
        counts += increments
        counts %= self._modulus

    def bind_row(self, row: np.ndarray) -> None:
        """Re-point counter storage at a shared matrix row.

        The batched tick path stacks all banks of a system into one
        matrix so it credits every bank in one operation and reduces
        only when a register could wrap (:func:`wrap_horizon`).  The
        current counts are copied into ``row``; afterwards all in-place
        mutation happens through the shared storage, so :meth:`credit`
        and matrix-level updates see the same numbers.
        """
        if row.shape != self._counts.shape:
            raise ValueError("row shape does not match the counter bank")
        row[:] = self._counts
        self._counts = row

    @property
    def modulus(self) -> float:
        """Wraparound modulus (``2**counter_bits``)."""
        return self._modulus

    def snapshot(self) -> CounterSnapshot:
        """Read all counters atomically (returns a copy)."""
        return CounterSnapshot(self._counts.copy(), self._modulus)

    @property
    def raw(self) -> np.ndarray:
        """Current counter values (read-only view for tests/analysis)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:
        return f"CounterBank(cpu={self.cpu_id}, total={self._counts.sum():.3g})"
