"""The tick loop.

The :class:`Engine` owns the clock and a list of components implementing
:class:`TickComponent`.  Each simulated tick it calls every component's
``tick`` hook in registration order.  The simulator registers one
component, the :class:`repro.system.System`, whose ``tick`` runs the
intra-tick phases in order (wake/fork, dispatch, execution, thermal,
throttle, housekeeping, sampling); ``repro validate``'s fault runs
register a :class:`repro.validate.faults.FaultInjector` after it.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.sim.clock import Clock
from repro.sim.trace import Tracer


@runtime_checkable
class TickComponent(Protocol):
    """Anything advanced once per simulated tick."""

    def tick(self, clock: Clock) -> None:
        """Advance the component across the tick that just elapsed."""
        ...


class Engine:
    """Fixed-step simulation driver.

    Parameters
    ----------
    clock:
        The shared simulated clock.
    tracer:
        Shared trace sink; exposed so callers can inspect results.
    """

    def __init__(self, clock: Clock, tracer: Tracer | None = None) -> None:
        self.clock = clock
        self.tracer = tracer if tracer is not None else Tracer()
        self._components: list[TickComponent] = []

    def register(self, component: TickComponent) -> None:
        """Append ``component`` to the per-tick call order."""
        if not isinstance(component, TickComponent):
            raise TypeError(f"{component!r} does not implement tick(clock)")
        self._components.append(component)

    def run_for(self, seconds: float) -> None:
        """Run the simulation for ``seconds`` of simulated time."""
        if seconds <= 0:
            raise ValueError(f"duration must be positive, got {seconds}")
        self.run_ticks(self.clock.ticks_for_ms(seconds * 1000.0))

    def run_until_tick(self, total_ticks: int) -> None:
        """Run until the clock reaches ``total_ticks`` whole ticks.

        A no-op when the clock is already there — this is the resume
        primitive: an engine rebuilt from a checkpoint at tick T
        finishes a ``run_for(D)`` run with
        ``run_until_tick(clock.ticks_for_ms(D * 1000))``.
        """
        if total_ticks < 0:
            raise ValueError(f"total_ticks must be non-negative, got {total_ticks}")
        remaining = total_ticks - self.clock.ticks
        if remaining > 0:
            self.run_ticks(remaining)

    def run_ticks(self, n_ticks: int) -> None:
        """Run exactly ``n_ticks`` ticks."""
        if n_ticks < 0:
            raise ValueError(f"n_ticks must be non-negative, got {n_ticks}")
        clock = self.clock
        components = self._components
        for _ in range(n_ticks):
            clock.advance()
            for component in components:
                component.tick(clock)

    def __repr__(self) -> str:
        return f"Engine(t={self.clock.now_s:.2f}s, components={len(self._components)})"
