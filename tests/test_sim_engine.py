"""Unit tests for the tick-loop engine."""

import pytest

from repro.sim.clock import Clock
from repro.sim.engine import Engine


class Recorder:
    """Tick component remembering when it was called."""

    def __init__(self):
        self.calls = []

    def tick(self, clock):
        self.calls.append(clock.ticks)


class TestEngineBasics:
    def test_run_ticks_advances_clock(self):
        clock = Clock(tick_ms=10)
        Engine(clock).run_ticks(5)
        assert clock.ticks == 5

    def test_components_called_every_tick(self):
        clock = Clock(tick_ms=10)
        engine = Engine(clock)
        rec = Recorder()
        engine.register(rec)
        engine.run_ticks(3)
        assert rec.calls == [1, 2, 3]

    def test_components_called_in_registration_order(self):
        clock = Clock(tick_ms=10)
        engine = Engine(clock)
        order = []

        class Named:
            def __init__(self, name):
                self.name = name

            def tick(self, clock):
                order.append(self.name)

        engine.register(Named("first"))
        engine.register(Named("second"))
        engine.run_ticks(1)
        assert order == ["first", "second"]

    def test_run_for_converts_seconds(self):
        clock = Clock(tick_ms=10)
        Engine(clock).run_for(1.0)
        assert clock.ticks == 100

    def test_run_for_rounds_partial_tick_up(self):
        clock = Clock(tick_ms=10)
        Engine(clock).run_for(0.005)
        assert clock.ticks == 1

    def test_multiple_runs_accumulate(self):
        clock = Clock(tick_ms=10)
        engine = Engine(clock)
        engine.run_ticks(2)
        engine.run_ticks(3)
        assert clock.ticks == 5


class TestEngineValidation:
    def test_rejects_component_without_tick(self):
        engine = Engine(Clock())
        with pytest.raises(TypeError):
            engine.register(object())

    def test_rejects_negative_tick_count(self):
        with pytest.raises(ValueError):
            Engine(Clock()).run_ticks(-1)

    @pytest.mark.parametrize("bad", [0, -1.5])
    def test_rejects_non_positive_duration(self, bad):
        with pytest.raises(ValueError):
            Engine(Clock()).run_for(bad)
