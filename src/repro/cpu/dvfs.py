"""Dynamic frequency/voltage scaling — the road not taken.

The paper's hardware has no DVFS ("frequency and voltage scaling are
not available on most of todays high performance processors used in
multiprocessor server machines", §2.3), which is why its answer to an
overheating CPU is migration or ``hlt``.  To quantify that design
choice we model the classical alternative: drop the clock (and with it
the voltage) until the chip stays under its thermal limit.

Scaling laws (voltage tracked linearly with frequency):

* execution speed    ∝ f
* dynamic power      ∝ f · V² ∝ f³
* static power       unchanged (no body biasing on this era's parts)

So a CPU at relative frequency ``s`` retires ``s`` of its work but
burns only ``s^3`` of its dynamic power — strictly better than ``hlt``
duty-cycling (which is linear in both) yet still strictly worse than
migrating the task to a cool CPU, which costs nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field


def _default_levels() -> tuple[float, ...]:
    # Relative frequency steps, e.g. a 2.2 GHz part down to 1.1 GHz.
    return (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)


def _validate_levels(levels: tuple[float, ...]) -> None:
    if not levels or levels[0] != 1.0:
        raise ValueError("levels must start at 1.0")
    if list(levels) != sorted(levels, reverse=True):
        raise ValueError("levels must be strictly descending")
    if any(not 0.0 < lv <= 1.0 for lv in levels):
        raise ValueError("levels must be in (0, 1]")
    if len(set(levels)) != len(levels):
        raise ValueError("levels must be strictly descending")


@dataclass(frozen=True, slots=True)
class DvfsConfig:
    """Frequency ladder and controller hysteresis.

    Attributes
    ----------
    levels:
        Available relative frequencies, descending, starting at 1.0.
    step_up_margin_w:
        Step back up once thermal power falls this far below the limit.
    """

    levels: tuple[float, ...] = field(default_factory=_default_levels)
    step_up_margin_w: float = 2.0

    def __post_init__(self) -> None:
        _validate_levels(self.levels)
        if self.step_up_margin_w <= 0:
            raise ValueError("step-up margin must be positive")


@dataclass(frozen=True, slots=True)
class ProactiveDvfsConfig:
    """Ladder and hysteresis of the temperature-tracking controller.

    Attributes
    ----------
    levels:
        Available relative frequencies, descending, starting at 1.0.
    target_margin_c:
        Safety margin below the thermal limit; the controller steers the
        estimated die temperature toward ``limit - margin``.
    step_up_margin_c:
        Step back up once the estimate falls this far below the target.
    """

    levels: tuple[float, ...] = field(default_factory=_default_levels)
    target_margin_c: float = 2.0
    step_up_margin_c: float = 1.0

    def __post_init__(self) -> None:
        _validate_levels(self.levels)
        if self.target_margin_c < 0:
            raise ValueError("target margin must be non-negative")
        if self.step_up_margin_c <= 0:
            raise ValueError("step-up margin must be positive")


def dynamic_power_scale(freq_scale: float) -> float:
    """Dynamic power multiplier at a relative frequency (∝ f^3)."""
    if not 0.0 < freq_scale <= 1.0:
        raise ValueError("frequency scale must be in (0, 1]")
    return freq_scale ** 3


class _StaircaseGovernor:
    """Per-CPU frequency ladder moved at most one level per tick.

    The shared state machine of both governors: step down while the
    controlled value exceeds its limit, step back up once it has fallen
    ``step_up_margin`` below.  Subclasses name the value and its margin.
    """

    def __init__(self, n_cpus: int, config) -> None:
        if n_cpus < 1:
            raise ValueError("need at least one CPU")
        self.config = config
        self._level_index = [0] * n_cpus
        self._scaled_ticks = [0] * n_cpus
        self._total_ticks = [0] * n_cpus
        self._scale_sum = [0.0] * n_cpus

    @property
    def step_up_margin(self) -> float:
        raise NotImplementedError

    def scale(self, cpu_id: int) -> float:
        """Current relative frequency of a CPU."""
        return self.config.levels[self._level_index[cpu_id]]

    def _update(self, cpu_id: int, value: float, limit: float) -> float:
        """Advance one CPU one tick; the per-CPU reference for :meth:`step`."""
        self._total_ticks[cpu_id] += 1
        index = self._level_index[cpu_id]
        if value > limit and index < len(self.config.levels) - 1:
            index += 1
        elif value < limit - self.step_up_margin and index > 0:
            index -= 1
        self._level_index[cpu_id] = index
        if index > 0:
            self._scaled_ticks[cpu_id] += 1
        scale = self.config.levels[index]
        self._scale_sum[cpu_id] += scale
        return scale

    def step(
        self, values: Sequence[float], limits: Sequence[float]
    ) -> list[int]:
        """Advance every CPU one tick; return the CPUs whose level moved.

        Same state and statistics as one per-CPU update in ascending
        order; the moved CPUs come back ascending.
        """
        levels = self.config.levels
        bottom = len(levels) - 1
        margin = self.step_up_margin
        level_index = self._level_index
        scaled_ticks = self._scaled_ticks
        total = self._total_ticks
        scale_sum = self._scale_sum
        moved = []
        for c in range(len(level_index)):
            total[c] += 1
            index = level_index[c]
            if values[c] > limits[c] and index < bottom:
                index += 1
                level_index[c] = index
                moved.append(c)
            elif values[c] < limits[c] - margin and index > 0:
                index -= 1
                level_index[c] = index
                moved.append(c)
            if index > 0:
                scaled_ticks[c] += 1
            scale_sum[c] += levels[index]
        return moved

    def scaled_fraction(self, cpu_id: int) -> float:
        """Fraction of time the CPU ran below full frequency."""
        total = self._total_ticks[cpu_id]
        return self._scaled_ticks[cpu_id] / total if total else 0.0

    def mean_scale(self, cpu_id: int) -> float:
        """Mean relative frequency over the CPU's governed ticks.

        1.0 when the controller never ran (DVFS disabled or a zero-tick
        run): an ungoverned CPU is a full-speed CPU.
        """
        total = self._total_ticks[cpu_id]
        return self._scale_sum[cpu_id] / total if total else 1.0


class DvfsController(_StaircaseGovernor):
    """Per-CPU frequency governor holding thermal power at the limit.

    One step per update, like the staircase governors of the era: step
    down whenever thermal power exceeds the limit, step up when there is
    comfortable headroom.
    """

    def __init__(self, n_cpus: int, config: DvfsConfig | None = None) -> None:
        super().__init__(n_cpus, config if config is not None else DvfsConfig())

    @property
    def step_up_margin(self) -> float:
        return self.config.step_up_margin_w

    def update(self, cpu_id: int, thermal_power_w: float, limit_w: float) -> float:
        """Advance one tick; returns the frequency scale to run at."""
        return self._update(cpu_id, thermal_power_w, limit_w)


class TemperatureDvfsController(_StaircaseGovernor):
    """Proactive per-CPU governor steering the *estimated* temperature.

    Where :class:`DvfsController` reacts to the thermal-power estimate
    crossing the power limit, this one tracks the §4.2 temperature
    estimate directly: step down while the package's estimated die
    temperature sits above the target (limit minus a safety margin),
    step back up once it has cooled a hysteresis band below the target.
    Acting on the estimate rather than the limit means the clock drops
    *before* the chip reaches throttling territory.
    """

    def __init__(
        self, n_cpus: int, config: ProactiveDvfsConfig | None = None
    ) -> None:
        super().__init__(
            n_cpus, config if config is not None else ProactiveDvfsConfig()
        )

    @property
    def step_up_margin(self) -> float:
        return self.config.step_up_margin_c

    def update(self, cpu_id: int, est_temp_c: float, target_c: float) -> float:
        """Advance one tick; returns the frequency scale to run at."""
        return self._update(cpu_id, est_temp_c, target_c)
