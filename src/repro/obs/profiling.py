"""Tick-loop self-profiling: where does wall time go?

:class:`PhaseTimers` accumulates wall-clock time per tick phase
(dispatch, execute, thermal, throttle, housekeeping, sample, validate)
so perf work can see *which* phase regressed instead of only the
end-to-end ticks/s number.  Cyclic-GC pauses are a phase of their own
(``gc``): a collection runs inside whichever phase's allocation set it
off, so charging it there would move a phase's time between two trees
whose code for that phase is the same.  The profiled tick loop in
:class:`~repro.system.System` feeds it;
:meth:`~repro.obs.observer.Observer.phase_report` reads it, and
perfbench's traced runs report it as ``system.phase.*_frac``.

Wall-clock durations are nondeterministic by nature, so profiling is a
separate opt-in from the rest of observability and its numbers never
enter deterministic payloads (summaries, goldens, cache keys).
"""

from __future__ import annotations

from time import perf_counter

#: The tick phases the profiled loop times, in execution order.
TICK_PHASES = (
    "wake_fork",      # wakeup scan + workload forks
    "dispatch",       # pick_next on idle runqueues
    "execute",        # the execution step (fast or scalar)
    "thermal",        # RC integration + estimation-error tracking
    "throttle",       # throttle / DVFS controller update
    "housekeeping",   # periodic balance + hot-migration checks
    "sample",         # tracer series decimation
    "validate",       # invariant checker (when installed)
    "gc",             # cyclic-GC pauses, moved out of the phase they hit
)


class PhaseTimers:
    """Per-phase wall-clock accumulator.

    ``add`` is the hot call — one dict update per phase per tick — so it
    stays free of any per-call allocation.  Unknown phase names are
    accepted (callers may time ad-hoc sections); :data:`TICK_PHASES`
    only fixes the report order of the standard ones.

    With :meth:`on_gc` in ``gc.callbacks``, ``add`` moves the time of
    the collections that ran since the previous ``add`` out of the phase
    it closes and into ``gc`` (one call per collection), so the phases
    still sum to the timed total.
    """

    __slots__ = ("totals", "counts", "ticks", "total_s", "_gc_start",
                 "_gc_s")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.ticks = 0
        self.total_s = 0.0
        self._gc_start = 0.0
        self._gc_s = 0.0  # collection time not yet moved out of a phase

    def add(self, phase: str, dt_s: float) -> None:
        self.total_s += dt_s
        if self._gc_s:
            # A pause longer than the phase cannot have run inside it (it
            # began after the phase's closing clock read): the rest waits
            # for the next phase, so no phase goes negative.
            moved = min(self._gc_s, dt_s)
            self._gc_s -= moved
            dt_s -= moved
            self.totals["gc"] = self.totals.get("gc", 0.0) + moved
        self.totals[phase] = self.totals.get(phase, 0.0) + dt_s
        self.counts[phase] = self.counts.get(phase, 0) + 1

    def on_gc(self, event: str, _info: dict) -> None:
        """A ``gc.callbacks`` hook timing each collection for :meth:`add`."""
        if event == "start":
            self._gc_start = perf_counter()
        else:
            self._gc_s += perf_counter() - self._gc_start
            self.counts["gc"] = self.counts.get("gc", 0) + 1

    def tick_done(self) -> None:
        self.ticks += 1
        # What is left ran after the tick's last phase closed: in none.
        self._gc_s = 0.0

    @staticmethod
    def now() -> float:
        return perf_counter()

    def report(self) -> dict:
        """Per-phase totals, means, and fractions of the timed total.

        Phases are reported in :data:`TICK_PHASES` order, then any
        extras sorted by name.
        """
        ordered = [p for p in TICK_PHASES if p in self.totals]
        ordered += sorted(set(self.totals) - set(TICK_PHASES))
        total = self.total_s
        phases = {}
        for phase in ordered:
            phase_total = self.totals[phase]
            count = self.counts[phase]
            phases[phase] = {
                "total_s": phase_total,
                "calls": count,
                "mean_us": (phase_total / count) * 1e6 if count else 0.0,
                "fraction": phase_total / total if total > 0 else 0.0,
            }
        return {
            "ticks": self.ticks,
            "timed_total_s": total,
            "phases": phases,
        }

    def __repr__(self) -> str:
        return (
            f"PhaseTimers(ticks={self.ticks}, "
            f"phases={sorted(self.totals)})"
        )
