"""Task behaviour as phase machines over instruction mixes.

The paper's premise (§3.1, citing Bellosa's TR): a task's power draw is
"fairly static most of the time, but exhibits changes as the task
experiences different phases of execution".  Behaviours here produce,
tick by tick, the event rates the PMC substrate credits, and implement
four phase structures sufficient for the paper's program set:

* :class:`StaticBehavior` — one phase (bitcnts, memrw, aluadd, pushpop).
* :class:`CyclicBehavior` — fixed phase rotation (openssl's successive
  cipher/digest sub-benchmarks).
* :class:`AlternatingBehavior` — two phases with random dwell times
  (bzip2's compress/flush alternation).
* :class:`SpikyBehavior` — a base phase with rare short excursions
  (grep's page-cache-miss bursts; also used for interactive daemons).

All behaviours add a slowly-wobbling activity factor, resampled every
``wobble_interval_s`` of busy time, producing the small
successive-timeslice power changes of Table 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.cpu.events import N_EVENTS

# Bound once for Behavior.step, which builds a scaled mix per wobble
# resample or phase change without the frozen dataclass's validation.
_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class InstructionMix:
    """Concrete per-cycle event rates plus the mix's IPC."""

    rates_per_cycle: np.ndarray
    ipc: float
    label: str = ""

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates_per_cycle, dtype=float)
        if rates.shape != (N_EVENTS,):
            raise ValueError(f"rates must have shape ({N_EVENTS},)")
        if np.any(rates < 0):
            raise ValueError("event rates must be non-negative")
        if self.ipc <= 0:
            raise ValueError("IPC must be positive")
        object.__setattr__(self, "rates_per_cycle", rates)


@dataclass(frozen=True, slots=True)
class PhaseSpec:
    """One phase: a mix plus a dwell-time distribution (busy seconds)."""

    mix: InstructionMix
    mean_duration_s: float
    duration_jitter: float = 0.2  #: relative sigma of the dwell time

    def __post_init__(self) -> None:
        if self.mean_duration_s <= 0:
            raise ValueError("phase duration must be positive")
        if not 0 <= self.duration_jitter < 1:
            raise ValueError("duration jitter must be in [0, 1)")

    def sample_duration(self, rng: random.Random) -> float:
        jitter = rng.gauss(0.0, self.duration_jitter)
        return max(0.1 * self.mean_duration_s, self.mean_duration_s * (1.0 + jitter))


class Behavior:
    """Base phase machine.

    Subclasses define the phase sequence via :meth:`_next_phase`.
    The executor calls :meth:`step` once per tick of *busy* time; halted
    or blocked time does not advance the phase clock (phases are
    execution progress, not wall time).
    """

    def __init__(
        self,
        phases: list[PhaseSpec],
        rng: random.Random,
        wobble_sigma: float = 0.01,
        wobble_interval_s: float = 0.1,
    ) -> None:
        if not phases:
            raise ValueError("behavior needs at least one phase")
        if wobble_sigma < 0:
            raise ValueError("wobble sigma must be non-negative")
        if wobble_interval_s <= 0:
            raise ValueError("wobble interval must be positive")
        self.phases = phases
        self._rng = rng
        self._wobble_sigma = wobble_sigma
        self._wobble_interval_s = wobble_interval_s
        self._phase_index = 0
        self._phase_remaining_s = phases[0].sample_duration(rng)
        self._wobble = 1.0
        self._wobble_remaining_s = 0.0
        self._cached_mix: InstructionMix | None = None
        self.phase_changes = 0

    # -- subclass hook ------------------------------------------------------
    def _next_phase(self) -> int:
        """Index of the phase to enter when the current one expires."""
        raise NotImplementedError

    # -- executor interface ---------------------------------------------------
    def advance(self, busy_dt_s: float) -> tuple[int, float]:
        """Advance ``busy_dt_s`` of execution, making every draw of it.

        Returns the phase index and wobble factor the step runs at: the
        wobble is resampled first when its interval has run out, and a
        phase that expires takes effect on the *next* step (a tick is
        far shorter than any phase, so sub-tick splitting is noise).
        Either change clears the cached scaled mix.  The calibration
        reads only these two values; :meth:`step` builds the mix.
        """
        if busy_dt_s < 0:
            raise ValueError("busy time must be non-negative")
        if self._wobble_remaining_s <= 0:
            if self._wobble_sigma:
                self._wobble = max(0.5, 1.0 + self._rng.gauss(0.0, self._wobble_sigma))
            self._wobble_remaining_s = self._wobble_interval_s
            self._cached_mix = None
        index = self._phase_index
        self._phase_remaining_s -= busy_dt_s
        self._wobble_remaining_s -= busy_dt_s
        if self._phase_remaining_s <= 0:
            new_index = self._next_phase()
            if new_index != index:
                self.phase_changes += 1
                self._cached_mix = None
            self._phase_index = new_index
            self._phase_remaining_s = self.phases[new_index].sample_duration(self._rng)
        return index, self._wobble

    def step(self, busy_dt_s: float) -> InstructionMix:
        """Advance ``busy_dt_s`` of execution; return the mix to run.

        The returned mix has the wobble factor already applied to its
        rates; it is cached until the wobble or the phase changes.
        """
        # A wobble resample in advance() voids the cached mix for this
        # very step; a phase change voids it only for the next one.
        mix = self._cached_mix if self._wobble_remaining_s > 0 else None
        index, wobble = self.advance(busy_dt_s)
        if mix is None:
            base = self.phases[index].mix
            # Scaling a validated mix cannot invalidate it, so skip the
            # dataclass validation on this per-wobble hot path.
            mix = _new(InstructionMix)
            _set(mix, "rates_per_cycle", base.rates_per_cycle * wobble)
            _set(mix, "ipc", base.ipc)
            _set(mix, "label", base.label)
            if self._phase_index == index:
                self._cached_mix = mix
        return mix


class StaticBehavior(Behavior):
    """A single phase forever."""

    def __init__(
        self,
        phase: PhaseSpec,
        rng: random.Random,
        wobble_sigma: float = 0.01,
        wobble_interval_s: float = 0.1,
    ) -> None:
        super().__init__([phase], rng, wobble_sigma, wobble_interval_s)

    def _next_phase(self) -> int:
        return 0


class CyclicBehavior(Behavior):
    """Rotates through phases in order, wrapping around."""

    def _next_phase(self) -> int:
        return (self._phase_index + 1) % len(self.phases)


class AlternatingBehavior(Behavior):
    """Alternates between exactly two phases."""

    def __init__(self, phases: list[PhaseSpec], rng: random.Random, **kwargs) -> None:
        if len(phases) != 2:
            raise ValueError("alternating behavior needs exactly two phases")
        super().__init__(phases, rng, **kwargs)

    def _next_phase(self) -> int:
        return 1 - self._phase_index


class SpikyBehavior(Behavior):
    """Phase 0 is the base; other phases are rare excursions.

    After each base dwell a spike phase is entered with probability
    ``spike_probability``; spikes always return to the base phase.
    """

    def __init__(
        self,
        phases: list[PhaseSpec],
        rng: random.Random,
        spike_probability: float = 0.05,
        **kwargs,
    ) -> None:
        if len(phases) < 2:
            raise ValueError("spiky behavior needs a base and >= 1 spike phase")
        if not 0 <= spike_probability <= 1:
            raise ValueError("spike probability must be in [0, 1]")
        super().__init__(phases, rng, **kwargs)
        self.spike_probability = spike_probability

    def _next_phase(self) -> int:
        if self._phase_index != 0:
            return 0
        if self._rng.random() < self.spike_probability:
            return self._rng.randrange(1, len(self.phases))
        return 0
