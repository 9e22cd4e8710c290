"""Unit tests for the calibrated program models (Tables 1 and 2)."""

import dataclasses
import random

import numpy as np
import pytest

from repro.cpu.power import GroundTruthPower, PowerModelParams
from repro.workloads.programs import (
    FLAVOR_MEM,
    PROGRAMS,
    PhaseDef,
    ProgramSpec,
    program,
)

FREQ = 2.2e9

# Table 2 of the paper.
TABLE2 = {
    "bitcnts": 61.0,
    "memrw": 38.0,
    "aluadd": 50.0,
    "pushpop": 47.0,
    "bzip2": 48.0,  # compress phase is 53 W; dwell-weighted approx 48 W
}


@pytest.fixture
def power():
    return GroundTruthPower(PowerModelParams())


class TestProgramRegistry:
    def test_all_nine_programs_present(self):
        expected = {
            "bitcnts", "memrw", "aluadd", "pushpop", "openssl", "bzip2",
            "bash", "grep", "sshd",
        }
        assert set(PROGRAMS) == expected

    def test_lookup_helper(self):
        assert program("bitcnts").name == "bitcnts"

    def test_lookup_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="bitcnts"):
            program("nonexistent")

    def test_inodes_unique(self):
        inodes = [p.inode for p in PROGRAMS.values()]
        assert len(inodes) == len(set(inodes))


class TestTable2Powers:
    @pytest.mark.parametrize("name", ["bitcnts", "memrw", "aluadd", "pushpop"])
    def test_static_program_power_matches_table2(self, power, name):
        spec = program(name)
        behavior = spec.build_behavior(power, FREQ, random.Random(0))
        mix = behavior.step(0.1)
        total = 20.0 + power.dynamic_power_w(mix.rates_per_cycle, FREQ)
        # Wobble adds ~1 %; the calibration itself is exact.
        assert total == pytest.approx(TABLE2[name], rel=0.04)

    def test_openssl_power_range(self, power):
        """openssl varies between 42 W and 57 W across phases (Table 2);
        a short keygen phase dips lower (drives Table 1's 63 % max)."""
        spec = program("openssl")
        sustained = [p.total_power_w for p in spec.phases if p.mean_duration_s > 5]
        assert min(sustained) == pytest.approx(42.0)
        assert max(sustained) == pytest.approx(57.0)

    def test_nominal_power_is_dwell_weighted(self):
        spec = program("bzip2")
        nominal = spec.nominal_power_w()
        assert 44.0 < nominal < 51.0  # ~ Table 2's 48 W

    def test_phase_rates_solved_exactly(self, power):
        """rates_for_dynamic_power inverts the model exactly for every
        phase of every program."""
        for spec in PROGRAMS.values():
            for phase in spec.phases:
                flavor = np.asarray(phase.flavor or spec.flavor)
                rates = power.rates_for_dynamic_power(
                    flavor, phase.total_power_w - 20.0, FREQ
                )
                achieved = 20.0 + power.dynamic_power_w(rates, FREQ)
                assert achieved == pytest.approx(phase.total_power_w, abs=1e-6)


class TestPhaseSolveMemo:
    """Phase rates are solved once per process and shared read-only."""

    def test_built_mixes_equal_a_fresh_solve(self, power):
        for spec in PROGRAMS.values():
            behavior = spec.build_behavior(power, FREQ, random.Random(0))
            for phase, built in zip(spec.phases, behavior.phases, strict=True):
                fresh = power.rates_for_dynamic_power(
                    np.asarray(phase.flavor or spec.flavor, dtype=float),
                    phase.total_power_w - power.params.base_active_w,
                    FREQ,
                )
                assert built.mix.rates_per_cycle.tobytes() == fresh.tobytes()

    def test_cached_rates_are_read_only(self, power):
        behavior = program("bitcnts").build_behavior(power, FREQ, random.Random(0))
        with pytest.raises(ValueError, match="read-only"):
            behavior.phases[0].mix.rates_per_cycle[0] = 0.0

    def test_model_and_frequency_key_the_solve(self):
        spec = program("openssl")

        def rates(params, freq_hz):
            behavior = spec.build_behavior(
                GroundTruthPower(params), freq_hz, random.Random(0)
            )
            return [p.mix.rates_per_cycle.tobytes() for p in behavior.phases]

        default = rates(PowerModelParams(), FREQ)
        for other in (
            rates(PowerModelParams(base_active_w=22.0), FREQ),
            rates(PowerModelParams(), 1.8e9),
        ):
            assert all(a != b for a, b in zip(default, other, strict=True))

    def test_behaviors_share_rates_but_not_phase_lists(self, power):
        spec = program("openssl")
        a = spec.build_behavior(power, FREQ, random.Random(0))
        b = spec.build_behavior(power, FREQ, random.Random(0))
        assert a.phases is not b.phases
        assert a.phases[0].mix.rates_per_cycle is b.phases[0].mix.rates_per_cycle

    def test_behaviors_share_phase_specs_but_not_phase_lists(self, power):
        for spec in PROGRAMS.values():
            a = spec.build_behavior(power, FREQ, random.Random(0))
            b = spec.build_behavior(power, FREQ, random.Random(1))
            assert a.phases is not b.phases, spec.name
            for x, y in zip(a.phases, b.phases, strict=True):
                assert x is y, spec.name
                assert not x.mix.rates_per_cycle.flags.writeable, spec.name

    @pytest.mark.parametrize("change", [
        {"name": "other"}, {"ipc": 0.75}, {"flavor": FLAVOR_MEM},
        {"phases": (PhaseDef(30.0, 2.0, "prompt"), PhaseDef(36.0, 0.3, "builtin"))},
        {"phases": (PhaseDef(30.0, 2.5, "prompt"), PhaseDef(35.5, 0.3, "builtin"))},
        {"phases": (PhaseDef(30.0, 2.0, "shell"), PhaseDef(35.5, 0.3, "builtin"))},
        {"phases": (PhaseDef(30.0, 2.0, "prompt", flavor=FLAVOR_MEM),
                    PhaseDef(35.5, 0.3, "builtin"))},
        {"phases": (PhaseDef(30.0, 2.0, "prompt", duration_jitter=0.1),
                    PhaseDef(35.5, 0.3, "builtin"))},
    ], ids=["name", "ipc", "flavor", "power", "dwell", "label",
            "phase-flavor", "dwell-jitter"])
    def test_every_phase_field_keys_the_memo(self, power, change):
        spec = program("bash")
        changed = dataclasses.replace(spec, **change)
        a = spec.build_behavior(power, FREQ, random.Random(0))
        b = changed.build_behavior(power, FREQ, random.Random(0))
        assert [
            (p.mix.label, p.mix.ipc, p.mix.rates_per_cycle.tobytes(),
             p.mean_duration_s, p.duration_jitter) for p in b.phases
        ] != [
            (p.mix.label, p.mix.ipc, p.mix.rates_per_cycle.tobytes(),
             p.mean_duration_s, p.duration_jitter) for p in a.phases
        ]

    def test_list_valued_fields_still_build(self):
        """Lists are unhashable; the memo keys on converted values."""
        weights = list(PowerModelParams().weights_nj)
        power = GroundTruthPower(PowerModelParams(weights_nj=weights))
        spec = ProgramSpec(
            name="x", inode=1, kind="spiky",
            phases=(
                PhaseDef(40.0, 1.0, "p"),
                PhaseDef(50.0, 0.2, "q", flavor=[1.0, 0.5, 0.0, 0.5, 0.01, 0.2]),
            ),
            flavor=[1.0] * 6, ipc=1.0,
        )
        behavior = spec.build_behavior(power, FREQ, random.Random(0))
        totals = [
            20.0 + power.dynamic_power_w(p.mix.rates_per_cycle, FREQ)
            for p in behavior.phases
        ]
        assert totals == pytest.approx([40.0, 50.0], abs=1e-6)


    def test_list_valued_fields_share_phase_specs(self):
        def build():
            power = GroundTruthPower(
                PowerModelParams(weights_nj=list(PowerModelParams().weights_nj))
            )
            spec = ProgramSpec(
                name="x", inode=1, kind="cyclic",
                phases=[
                    PhaseDef(40.0, 1.0, "p", flavor=[1.0, 0.5, 0.0, 0.5, 0.01, 0.2])
                ],
                flavor=[1.0] * 6, ipc=1.0,
            )
            return spec.build_behavior(power, FREQ, random.Random(0))

        a, b = build(), build()
        assert a.phases is not b.phases
        assert a.phases[0] is b.phases[0]


class TestProgramSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ProgramSpec(
                name="x", inode=1, kind="chaotic",
                phases=(PhaseDef(40.0, 1.0, "p"),),
                flavor=(1.0,) * 6, ipc=1.0,
            )

    def test_rejects_empty_phases(self):
        with pytest.raises(ValueError):
            ProgramSpec(
                name="x", inode=1, kind="static", phases=(),
                flavor=(1.0,) * 6, ipc=1.0,
            )

    def test_rejects_phase_below_base_power(self, power):
        spec = ProgramSpec(
            name="x", inode=1, kind="static",
            phases=(PhaseDef(10.0, 1.0, "p"),),  # below 20 W base
            flavor=(1.0,) * 6, ipc=1.0,
        )
        with pytest.raises(ValueError, match="below base"):
            spec.build_behavior(power, FREQ, random.Random(0))

    def test_job_instructions_scale_with_duration(self):
        spec = program("bitcnts")
        assert spec.job_instructions(FREQ) == pytest.approx(FREQ * spec.ipc * 30.0)


class TestInteractivity:
    def test_cpu_bound_programs_never_block(self):
        for name in ("bitcnts", "memrw", "aluadd", "pushpop", "openssl", "grep"):
            assert program(name).interactive is None, name

    def test_interactive_programs_block(self):
        for name in ("bash", "sshd", "bzip2"):
            interactive = program(name).interactive
            assert interactive is not None, name
            run_s, block_s = interactive
            assert run_s > 0 and block_s > 0


class TestBehaviorKinds:
    def test_kinds_match_phase_structure(self, power):
        from repro.workloads.behavior import (
            AlternatingBehavior, CyclicBehavior, SpikyBehavior, StaticBehavior,
        )

        kinds = {
            "bitcnts": StaticBehavior,
            "openssl": CyclicBehavior,
            "bzip2": AlternatingBehavior,
            "grep": SpikyBehavior,
        }
        for name, cls in kinds.items():
            behavior = program(name).build_behavior(power, FREQ, random.Random(0))
            assert isinstance(behavior, cls), name
