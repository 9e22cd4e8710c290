"""Unit tests for behaviour phase machines."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.events import N_EVENTS
from repro.workloads.behavior import (
    AlternatingBehavior,
    CyclicBehavior,
    InstructionMix,
    PhaseSpec,
    SpikyBehavior,
    StaticBehavior,
)


def mix(scale: float, label: str = "m") -> InstructionMix:
    return InstructionMix(np.full(N_EVENTS, scale), ipc=1.0, label=label)


def phase(scale: float, duration: float = 1.0, label: str = "p") -> PhaseSpec:
    return PhaseSpec(mix=mix(scale, label), mean_duration_s=duration,
                     duration_jitter=0.0)


class TestInstructionMix:
    def test_validation(self):
        with pytest.raises(ValueError):
            InstructionMix(np.ones(3), ipc=1.0)
        with pytest.raises(ValueError):
            InstructionMix(-np.ones(N_EVENTS), ipc=1.0)
        with pytest.raises(ValueError):
            InstructionMix(np.ones(N_EVENTS), ipc=0.0)


class TestPhaseSpec:
    def test_duration_sampling_with_jitter(self):
        spec = PhaseSpec(mix(1.0), mean_duration_s=10.0, duration_jitter=0.2)
        rng = random.Random(0)
        durations = [spec.sample_duration(rng) for _ in range(200)]
        assert np.mean(durations) == pytest.approx(10.0, rel=0.1)
        assert min(durations) >= 1.0  # floored at 10 % of the mean

    def test_zero_jitter_exact(self):
        spec = PhaseSpec(mix(1.0), mean_duration_s=5.0, duration_jitter=0.0)
        assert spec.sample_duration(random.Random(0)) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSpec(mix(1.0), mean_duration_s=0.0)
        with pytest.raises(ValueError):
            PhaseSpec(mix(1.0), mean_duration_s=1.0, duration_jitter=1.0)


class TestStaticBehavior:
    def test_stays_in_phase_forever(self):
        behavior = StaticBehavior(phase(1.0), random.Random(0), wobble_sigma=0.0)
        for _ in range(100):
            out = behavior.step(0.5)
            np.testing.assert_allclose(out.rates_per_cycle, 1.0)
        assert behavior.phase_changes == 0

    def test_wobble_varies_rates(self):
        behavior = StaticBehavior(
            phase(1.0), random.Random(1), wobble_sigma=0.05, wobble_interval_s=0.1
        )
        seen = {behavior.step(0.1).rates_per_cycle[0] for _ in range(50)}
        assert len(seen) > 10

    def test_wobble_constant_within_interval(self):
        behavior = StaticBehavior(
            phase(1.0), random.Random(1), wobble_sigma=0.05, wobble_interval_s=1.0
        )
        first = behavior.step(0.1).rates_per_cycle[0]
        second = behavior.step(0.1).rates_per_cycle[0]
        assert first == second

    def test_rejects_negative_step(self):
        behavior = StaticBehavior(phase(1.0), random.Random(0))
        with pytest.raises(ValueError):
            behavior.step(-0.1)


class TestCyclicBehavior:
    def test_rotates_in_order(self):
        phases = [phase(1.0, 1.0, "a"), phase(2.0, 1.0, "b"), phase(3.0, 1.0, "c")]
        behavior = CyclicBehavior(phases, random.Random(0), wobble_sigma=0.0)
        labels = []
        for _ in range(60):
            labels.append(behavior.step(0.1).label)
        # 1 s phases, 0.1 s steps: blocks of ~10 then wrap-around.
        assert labels[0] == "a"
        assert "b" in labels and "c" in labels
        first_b = labels.index("b")
        first_c = labels.index("c")
        assert first_b < first_c
        assert labels[first_c + 12] == "a"  # wrapped

    def test_phase_change_counter(self):
        phases = [phase(1.0, 0.5, "a"), phase(2.0, 0.5, "b")]
        behavior = CyclicBehavior(phases, random.Random(0), wobble_sigma=0.0)
        for _ in range(40):
            behavior.step(0.1)
        assert behavior.phase_changes >= 6


class TestAlternatingBehavior:
    def test_requires_exactly_two(self):
        with pytest.raises(ValueError):
            AlternatingBehavior([phase(1.0)], random.Random(0))
        with pytest.raises(ValueError):
            AlternatingBehavior(
                [phase(1.0), phase(2.0), phase(3.0)], random.Random(0)
            )

    def test_alternates(self):
        behavior = AlternatingBehavior(
            [phase(1.0, 0.3, "x"), phase(2.0, 0.3, "y")],
            random.Random(0),
            wobble_sigma=0.0,
        )
        labels = [behavior.step(0.1).label for _ in range(30)]
        transitions = [
            (a, b) for a, b in zip(labels, labels[1:]) if a != b
        ]
        assert all({a, b} == {"x", "y"} for a, b in transitions)
        assert len(transitions) >= 4


class TestSpikyBehavior:
    def test_returns_to_base_after_spike(self):
        behavior = SpikyBehavior(
            [phase(1.0, 0.2, "base"), phase(5.0, 0.1, "spike")],
            random.Random(3),
            spike_probability=1.0,  # spike after every base dwell
            wobble_sigma=0.0,
        )
        labels = [behavior.step(0.1).label for _ in range(40)]
        assert "spike" in labels
        # Every spike is followed by base, never spike -> spike.
        for a, b in zip(labels, labels[1:]):
            if a == "spike" and b != "spike":
                assert b == "base"

    def test_zero_probability_never_spikes(self):
        behavior = SpikyBehavior(
            [phase(1.0, 0.2, "base"), phase(5.0, 0.1, "spike")],
            random.Random(3),
            spike_probability=0.0,
            wobble_sigma=0.0,
        )
        labels = {behavior.step(0.1).label for _ in range(100)}
        assert labels == {"base"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikyBehavior([phase(1.0)], random.Random(0))
        with pytest.raises(ValueError):
            SpikyBehavior(
                [phase(1.0), phase(2.0)], random.Random(0), spike_probability=1.5
            )


class TestBehaviorValidation:
    def test_needs_phases(self):
        with pytest.raises(ValueError):
            CyclicBehavior([], random.Random(0))

    def test_rejects_bad_wobble(self):
        with pytest.raises(ValueError):
            StaticBehavior(phase(1.0), random.Random(0), wobble_sigma=-0.1)
        with pytest.raises(ValueError):
            StaticBehavior(phase(1.0), random.Random(0), wobble_interval_s=0.0)

    def test_determinism_per_seed(self):
        def run(seed):
            behavior = SpikyBehavior(
                [phase(1.0, 0.2), phase(5.0, 0.1)],
                random.Random(seed),
                spike_probability=0.3,
                wobble_sigma=0.02,
            )
            return [behavior.step(0.1).rates_per_cycle[0] for _ in range(50)]

        assert run(5) == run(5)
        assert run(5) != run(6)


#: The wobble resample interval of the twins below.
WOBBLE_S = 0.1


def _twin(kind: str, seed: int, wobble_sigma: float):
    """A behaviour of ``kind`` over distinct, jittered phases."""
    phases = [
        PhaseSpec(
            InstructionMix(np.linspace(0.1, 1.0, N_EVENTS) * (i + 1), ipc=1.0,
                           label=f"p{i}"),
            mean_duration_s=duration,
            duration_jitter=0.3,
        )
        for i, duration in enumerate((0.35, 0.15, 0.25))
    ]
    rng = random.Random(seed)
    common = dict(wobble_sigma=wobble_sigma, wobble_interval_s=WOBBLE_S)
    if kind == "static":
        return StaticBehavior(phases[0], rng, **common)
    if kind == "cyclic":
        return CyclicBehavior(phases, rng, **common)
    if kind == "alternating":
        return AlternatingBehavior(phases[:2], rng, **common)
    return SpikyBehavior(phases, rng, spike_probability=1.0, **common)


#: Step lengths: exactly the wobble interval, zero, longer than any
#: phase, and anything in between.
STEPS = st.one_of(
    st.sampled_from([WOBBLE_S, 0.0, 0.01, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
)


class TestStepMatchesAdvance:
    """``step`` builds its mix from ``advance``, the one phase machine
    the calibration also drives, so both make the same draws."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["static", "cyclic", "alternating", "spiky"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        wobble_sigma=st.sampled_from([0.0, 0.05]),
        steps=st.lists(STEPS, min_size=1, max_size=80),
    )
    def test_same_draws_phases_and_rates(self, kind, seed, wobble_sigma, steps):
        stepped = _twin(kind, seed, wobble_sigma)
        advanced = _twin(kind, seed, wobble_sigma)
        for dt in steps:
            mix = stepped.step(dt)
            index, wobble = advanced.advance(dt)
            base = advanced.phases[index].mix
            assert mix.label == base.label
            assert (mix.rates_per_cycle.tobytes()
                    == (base.rates_per_cycle * wobble).tobytes())
            assert stepped._wobble == wobble
            assert stepped._phase_index == advanced._phase_index
            assert stepped.phase_changes == advanced.phase_changes
            assert stepped._rng.getstate() == advanced._rng.getstate()

    def test_spiky_twins_make_excursions(self):
        """The drawn runs above do leave the base phase."""
        behavior = _twin("spiky", 7, 0.05)
        indices = {behavior.advance(0.1)[0] for _ in range(40)}
        assert 0 in indices and indices - {0}
