"""The fast path's once-per-tick counter credit and controller step.

The single-machine fast path credits every PMC bank with one matrix
operation per tick and reduces the registers modulo 2**40 only when
:func:`repro.cpu.pmc.wrap_horizon` says one could wrap; the fleet
engine uses the same rule.  No 20 s oracle run crosses a wrap and
nothing downstream reads the registers, so these tests preload every
register just below the modulus and drive fast and scalar twins (or a
fleet member and its twin) across the wrap in lockstep, comparing the
registers bit for bit every tick.

The throttle and DVFS controllers advance all CPUs with one batched
``step`` per tick; a Hypothesis test holds ``step`` to n per-CPU
``update`` calls on the same draws.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.dvfs import (
    DvfsConfig,
    DvfsController,
    ProactiveDvfsConfig,
    TemperatureDvfsController,
)
from repro.cpu.pmc import COUNTER_BITS, jitter_bound, wrap_horizon
from repro.cpu.throttle import ThrottleConfig, ThrottleController
from repro.resilience.checkpoint import restore, snapshot
from repro.scenario import parse_scenario
from repro.scenarios.pinned import FLEET_SCENARIO, scenario_by_name
from repro.sim.clock import Clock
from repro.system import System
from repro.validate import FaultInjector, fleet_lockstep, load_fault_plans

MODULUS = 2.0**COUNTER_BITS
N_TICKS = 200

#: Distances below 2**40 the registers are preloaded to.  ``near``
#: wraps most registers within 200 ticks, but the registers nearest the
#: top (one event has a zero rate) keep the wrap horizon at 0, so every
#: tick reduces.  ``far`` leaves every register at least ten of the
#: largest increments below the top, so the fast path skips the
#: remainder for stretches of ticks and the faster registers still wrap.
BANDS = {"near": (1e6, 3e8), "far": (5e8, 3e9)}
#: Far enough that the horizon stays open under the widest jitter.
WIDE = (2e9, 6e9)

#: Fast-path regimes: jittered counters, zero jitter, and DVFS-scaled
#: cycle counts (a 5 W budget sits below the idle thermal power, so the
#: governor steps down from the first tick).
CASES = {
    "throttle-hlt": dict(scenario_by_name("throttle-hlt").scenario),
    "adv-pingpong": dict(scenario_by_name("adv-pingpong").scenario),
    "dvfs-reactive": dict(
        scenario_by_name("throttle-hlt").scenario,
        policy="dvfs-reactive", max_power_per_cpu_w=5.0,
    ),
}


def preload(system, band, seed=5):
    low, high = band
    rng = np.random.default_rng(seed)
    system._counts_mx[:] = MODULUS - rng.uniform(
        low, high, size=system._counts_mx.shape
    )


def twins(data, band):
    """A fast and a scalar system, registers preloaded ``band`` below."""
    scenario = parse_scenario(data)
    systems = []
    for fast in (True, False):
        system = System(scenario.config, scenario.workload,
                        policy=scenario.policy, fast_path=fast)
        preload(system, band)
        systems.append(system)
    return systems


class Lockstep:
    """Advance a fast/scalar pair, comparing registers after each tick."""

    def __init__(self, fast, scalar, injectors=()):
        self.fast = fast
        self.scalar = scalar
        self.injectors = injectors
        self.clocks = [Clock(fast.config.tick_ms) for _ in range(2)]
        self.initial = fast._counts_mx.copy()
        self.skipped = 0
        self.dvfs_scaled = 0

    def run(self, n_ticks):
        for _ in range(n_ticks):
            for clock, system in zip(self.clocks, (self.fast, self.scalar)):
                clock.advance()
                system.tick(clock)
            for clock, injector in zip(self.clocks, self.injectors):
                injector.tick(clock)
            tick = self.clocks[0].ticks
            assert (self.fast._counts_mx.tobytes()
                    == self.scalar._counts_mx.tobytes()), f"tick {tick}"
            self.skipped += self.fast._wrap_skip > 0
            self.dvfs_scaled += min(self.fast._freq_scale) < 1.0

    def wrapped(self):
        # No register can wrap twice: 200 ticks of the largest increment
        # (~5e7) stay far below 2**40.
        return int((self.fast._counts_mx < self.initial).sum())


class TestWrapLockstep:
    @pytest.mark.parametrize("band", sorted(BANDS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fast_matches_scalar_across_wraps(self, case, band):
        fast, scalar = twins(CASES[case], BANDS[band])
        lockstep = Lockstep(fast, scalar)
        lockstep.run(N_TICKS)
        if band == "near":
            assert lockstep.wrapped() >= fast._counts_mx.size // 2
        else:
            assert lockstep.wrapped() > 0
            assert lockstep.skipped > 0
        if case == "dvfs-reactive":
            assert lockstep.dvfs_scaled == N_TICKS

    def test_largest_jitter_draws_stay_inside_the_horizon(self):
        # Every other draw is the largest Box-Muller value (u1 = 0 and
        # 1 - u2 = 2**-53), so the registers outrun any horizon that
        # does not scale by jitter_bound.
        data = dict(CASES["throttle-hlt"], counter_jitter_sigma=0.3)
        fast, scalar = twins(data, WIDE)
        for system in (fast, scalar):
            for c in range(system.n_cpus):
                draws = itertools.cycle((0.0, 1.0 - 2.0**-53))
                system.rng.stream(f"pmc:{c}").random = draws.__next__
        lockstep = Lockstep(fast, scalar)
        lockstep.run(N_TICKS)
        assert lockstep.skipped > 0
        assert lockstep.wrapped() > 0

    def test_checkpoint_restored_mid_horizon(self):
        fast, scalar = twins(CASES["throttle-hlt"], BANDS["far"])
        lockstep = Lockstep(fast, scalar)
        while not fast._wrap_skip:
            lockstep.run(1)
        split = lockstep.clocks[0].ticks
        assert split < N_TICKS // 2
        lockstep.fast = restore(snapshot(fast))
        lockstep.run(N_TICKS - split)
        assert lockstep.wrapped() > 0

    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_fleet_member_matches_twin_across_wraps(self, band):
        # fleet_lockstep probes the registers of each member and its
        # twin every tick; it builds the two twins first.
        built = []

        def builder(seed):
            def build():
                member = parse_scenario(
                    dict(FLEET_SCENARIO.scenario, seed=seed)
                )
                system = System(member.config, member.workload,
                                policy=member.policy)
                preload(system, BANDS[band], seed=seed)
                built.append((system, system._counts_mx.copy()))
                return system

            return build

        report = fleet_lockstep([builder(1), builder(2)], N_TICKS)
        assert report.identical, report.to_dict()
        twins_ = built[:2]
        wrapped = sum(
            int((twin._counts_mx < start).sum()) for twin, start in twins_
        )
        if band == "near":
            assert wrapped >= sum(start.size for _, start in twins_) // 2
        else:
            assert wrapped > 0


class TestWrapHorizonUnderFaults:
    def plan(self, name):
        return next(p for p in load_fault_plans() if p.name == name)

    def test_counter_noise_reduces_every_tick(self):
        # Spikes push the jitter past jitter_bound, so an injector must
        # end the skip, even one installed mid-horizon.
        fast, scalar = twins(CASES["throttle-hlt"], BANDS["far"])
        lockstep = Lockstep(fast, scalar)
        while not fast._wrap_skip:
            lockstep.run(1)
        plan = self.plan("counter-noise")
        injectors = (FaultInjector(fast, plan), FaultInjector(scalar, plan))
        lockstep.injectors = injectors
        lockstep.skipped = 0
        lockstep.run(N_TICKS - lockstep.clocks[0].ticks)
        assert injectors[0].stats["counter_spikes"] > 0
        assert (injectors[0].stats["counter_spikes"]
                == injectors[1].stats["counter_spikes"])
        assert lockstep.skipped == 0
        assert lockstep.wrapped() > 0

    def test_corrupt_register_never_reaches_int(self):
        fast, _ = twins(CASES["throttle-hlt"], BANDS["far"])
        injector = FaultInjector(fast, self.plan("counter-corrupt"))
        clock = Clock(fast.config.tick_ms)
        for _ in range(100):
            clock.advance()
            fast.tick(clock)
            injector.tick(clock)
        assert injector.stats["counter_corruptions"] > 0
        assert np.isnan(fast._counts_mx).any()
        # Detached, the next ticks compute horizons over NaN registers.
        fast.fault_injector = None
        for _ in range(20):
            clock.advance()
            fast.tick(clock)
            assert fast._wrap_skip == 0


class TestWrapHorizon:
    def test_nan_register_gives_zero(self):
        counts = np.array([[1.0, math.nan], [2.0, 3.0]])
        assert wrap_horizon(counts, MODULUS, 10.0) == 0

    def test_margin_of_three_steps(self):
        # A step is the increment plus the rounding bound 2**40 * 2**-53.
        counts = np.full((2, 3), MODULUS - 100.0)
        assert wrap_horizon(counts, MODULUS, 10.0) == 6
        assert wrap_horizon(counts, MODULUS, 40.0) == 0

    def test_zero_increment_counts_as_one(self):
        counts = np.full((1, 1), MODULUS - 100.0)
        assert wrap_horizon(counts, MODULUS, 0.0) == 96

    def test_jitter_bound_covers_the_largest_draw(self):
        # |z| of Box-Muller peaks at 1 - u = 2**-53.
        z_max = math.sqrt(-2.0 * math.log(2.0**-53))
        assert 1.0 + z_max * 0.01 < jitter_bound(0.01)
        assert jitter_bound(0.0) == 1.0


# -- controllers: one batched step == n per-CPU updates -----------------------

# Whole numbers hit the controllers' boundaries (value == limit,
# value == limit - margin) exactly; arbitrary floats fill in between.
readings = st.one_of(
    st.integers(0, 12).map(float), st.floats(0.0, 80.0, allow_nan=False)
)
margins = st.one_of(st.integers(1, 3).map(float), st.floats(0.1, 10.0))
ticks_of = lambda n: st.lists(  # noqa: E731
    st.lists(st.tuples(readings, readings), min_size=n, max_size=n),
    min_size=1, max_size=30,
)


def drive(step_ctl, update_ctl, ticks, state):
    """Advance one controller by step and its twin by updates; compare."""
    for tick in ticks:
        values = [v for v, _ in tick]
        limits = [lim for _, lim in tick]
        before = state(update_ctl)
        changed = step_ctl.step(values, limits)
        for c, (value, limit) in enumerate(tick):
            update_ctl.update(c, value, limit)
        after = state(update_ctl)
        assert changed == [
            c for c in range(len(tick)) if before[c] != after[c]
        ]
        assert state(step_ctl) == after


class TestControllerStep:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        enabled=st.booleans(),
        hysteresis=st.one_of(st.just(0.0), margins),
    )
    def test_throttle_step_equals_updates(self, data, n, enabled, hysteresis):
        config = ThrottleConfig(enabled=enabled, hysteresis_w=hysteresis)
        a = ThrottleController(n, config)
        b = ThrottleController(n, config)
        drive(a, b, data.draw(ticks_of(n)), lambda ctl: list(ctl.throttled))
        assert a._throttled_ticks == b._throttled_ticks
        assert a._total_ticks == b._total_ticks

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), margin=margins)
    def test_dvfs_step_equals_updates(self, data, n, margin):
        config = DvfsConfig(step_up_margin_w=margin)
        a = DvfsController(n, config)
        b = DvfsController(n, config)
        drive(a, b, data.draw(ticks_of(n)), lambda ctl: list(ctl._level_index))
        self.assert_same_stats(a, b)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), margin=margins)
    def test_temperature_dvfs_step_equals_updates(self, data, n, margin):
        config = ProactiveDvfsConfig(step_up_margin_c=margin)
        a = TemperatureDvfsController(n, config)
        b = TemperatureDvfsController(n, config)
        drive(a, b, data.draw(ticks_of(n)), lambda ctl: list(ctl._level_index))
        self.assert_same_stats(a, b)

    @staticmethod
    def assert_same_stats(a, b):
        assert a._scaled_ticks == b._scaled_ticks
        assert a._total_ticks == b._total_ticks
        assert a._scale_sum == b._scale_sum
