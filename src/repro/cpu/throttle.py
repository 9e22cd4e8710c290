"""``hlt``-based throttling (paper §6.2).

Temperature control is an on/off controller per *logical* CPU, matching
the paper's experiment: "whenever a CPU's thermal power rose above the
value corresponding to 38 degC, we throttled the CPU by executing the
hlt instruction".  Thermal power is the control variable (not the diode
— reading it is too slow, §3.1); a small hysteresis below the limit
avoids chattering.

While throttled a logical CPU makes no progress and its package draws
halted power (13.6 W when all threads halt) — the paper notes this
residual draw is exactly why throttling is *worse* than migrating the
work away (§6.4).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ThrottleConfig:
    """Controller settings.

    Attributes
    ----------
    enabled:
        Master switch; experiments without temperature control (Figs. 6/7)
        disable it.
    hysteresis_w:
        The CPU resumes once thermal power falls this far below its
        limit.
    scope:
        ``logical`` throttles each logical CPU on its own thermal power
        against its share of the package budget (the Table 3 setup,
        where siblings show different throttle percentages).
        ``package`` throttles a logical CPU when the *package* thermal
        sum exceeds the package budget (the §6.4 setup "we allowed each
        physical processor to consume 40 W at most").
    mode:
        ``hlt`` inserts halt cycles (the paper's hardware); ``dvfs``
        steps the clock down instead (:mod:`repro.cpu.dvfs`) — the
        comparator the paper's machines lacked.
    """

    enabled: bool = True
    hysteresis_w: float = 1.0
    scope: str = "logical"
    mode: str = "hlt"

    def __post_init__(self) -> None:
        if self.hysteresis_w < 0:
            raise ValueError("hysteresis must be non-negative")
        if self.scope not in ("logical", "package"):
            raise ValueError(f"unknown throttle scope {self.scope!r}")
        if self.mode not in ("hlt", "dvfs"):
            raise ValueError(f"unknown throttle mode {self.mode!r}")


class ThrottleController:
    """Per-logical-CPU on/off throttle state machine.

    The caller supplies every CPU's current thermal power and limit each
    tick (:meth:`step`); the controller answers whether the CPU may
    execute and keeps throttled-time statistics (Table 3 reports these
    percentages).
    """

    def __init__(self, n_cpus: int, config: ThrottleConfig | None = None) -> None:
        if n_cpus < 1:
            raise ValueError("need at least one CPU")
        self.config = config if config is not None else ThrottleConfig()
        self.n_cpus = n_cpus
        #: public struct-of-arrays column: throttle state per logical CPU
        self.throttled = [False] * n_cpus
        self._throttled_ticks = [0] * n_cpus
        self._total_ticks = [0] * n_cpus

    def update(self, cpu_id: int, thermal_power_w: float, limit_w: float) -> bool:
        """Advance one CPU one tick; return True if it is throttled now.

        The per-CPU reference for :meth:`step`.
        """
        self._total_ticks[cpu_id] += 1
        if not self.config.enabled:
            return False
        if self.throttled[cpu_id]:
            if thermal_power_w <= limit_w - self.config.hysteresis_w:
                self.throttled[cpu_id] = False
        else:
            if thermal_power_w > limit_w:
                self.throttled[cpu_id] = True
        if self.throttled[cpu_id]:
            self._throttled_ticks[cpu_id] += 1
        return self.throttled[cpu_id]

    def step(
        self, thermal_power_w: Sequence[float], limit_w: Sequence[float]
    ) -> list[int]:
        """Advance every CPU one tick; return the CPUs that flipped.

        Same state and statistics as one :meth:`update` per CPU in
        ascending order; the flipped CPUs come back ascending.
        """
        total = self._total_ticks
        if not self.config.enabled:
            for c in range(self.n_cpus):
                total[c] += 1
            return []
        hysteresis = self.config.hysteresis_w
        throttled = self.throttled
        throttled_ticks = self._throttled_ticks
        flipped = []
        for c in range(self.n_cpus):
            total[c] += 1
            if throttled[c]:
                if thermal_power_w[c] <= limit_w[c] - hysteresis:
                    throttled[c] = False
                    flipped.append(c)
                else:
                    throttled_ticks[c] += 1
            elif thermal_power_w[c] > limit_w[c]:
                throttled[c] = True
                throttled_ticks[c] += 1
                flipped.append(c)
        return flipped

    def is_throttled(self, cpu_id: int) -> bool:
        return self.throttled[cpu_id]

    def throttled_fraction(self, cpu_id: int) -> float:
        """Fraction of elapsed time this CPU spent halted (Table 3)."""
        total = self._total_ticks[cpu_id]
        if total == 0:
            return 0.0
        return self._throttled_ticks[cpu_id] / total

    def average_fraction(self) -> float:
        """Throttling percentage averaged over all CPUs."""
        fractions = [self.throttled_fraction(c) for c in range(self.n_cpus)]
        return sum(fractions) / self.n_cpus

    def reset_stats(self) -> None:
        """Zero the time accounting (state machine positions persist)."""
        self._throttled_ticks = [0] * self.n_cpus
        self._total_ticks = [0] * self.n_cpus
