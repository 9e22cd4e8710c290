"""Unit tests for the scenario registry and the generator-spec DSL."""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.scenario import parse_scenario
from repro.scenarios import (
    MACHINE_PRESETS,
    GeneratorSpec,
    ScenarioFamily,
    expand_generated,
    family_by_name,
    family_names,
    generate_scenario,
    machine_dict,
    register_family,
)
from repro.scenarios.registry import machine_n_cpus


class TestRegistry:
    def test_builtin_families_registered(self):
        names = family_names()
        for expected in ("poisson", "bursty", "sporadic",
                         "thermal-adversarial"):
            assert expected in names
        assert len(names) >= 4

    def test_lookup_unknown_lists_valid(self):
        with pytest.raises(ValueError, match="poisson"):
            family_by_name("no-such-family")

    def test_duplicate_registration_rejected(self):
        existing = family_by_name("poisson")
        with pytest.raises(ValueError, match="already registered"):
            register_family(existing)

    def test_adversarial_flag(self):
        assert family_by_name("thermal-adversarial").adversarial
        assert not family_by_name("poisson").adversarial

    @pytest.mark.parametrize("name", sorted(MACHINE_PRESETS))
    def test_machine_presets_parse(self, name):
        n = machine_n_cpus(name)
        assert n >= 1
        scenario = parse_scenario({
            "machine": machine_dict(name),
            "workload": {"builder": "single_program",
                         "program": "aluadd", "n": 1},
            "duration_s": 1,
        })
        assert scenario.config.machine.n_cpus == n

    def test_unknown_machine_shorthand(self):
        with pytest.raises(ValueError, match="ibm_x445"):
            machine_dict("cray")


class TestGeneratorSpec:
    def test_defaults_normalized_away(self):
        explicit = GeneratorSpec(
            "poisson", {"rate_per_s": 2.0}, seed=5
        )  # 2.0 IS the default
        bare = GeneratorSpec("poisson", seed=5)
        assert explicit.params == bare.params == {}
        assert explicit.digest() == bare.digest()

    def test_override_changes_digest(self):
        a = GeneratorSpec("poisson", {"rate_per_s": 3.0}, seed=5)
        b = GeneratorSpec("poisson", seed=5)
        assert a.digest() != b.digest()

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            GeneratorSpec("poisson", {"rat_per_s": 3.0})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            GeneratorSpec("zipf")

    @pytest.mark.parametrize("seed", [True, 1.5, "7"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            GeneratorSpec("poisson", seed=seed)

    def test_round_trip(self):
        spec = GeneratorSpec("bursty", {"depth": 0.5}, seed=9)
        again = GeneratorSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown generator keys"):
            GeneratorSpec.from_dict({"family": "poisson", "seeds": [1]})

    def test_from_dict_requires_family(self):
        with pytest.raises(ValueError, match="family"):
            GeneratorSpec.from_dict({"seed": 1})

    def test_canonical_json_is_sorted_and_compact(self):
        spec = GeneratorSpec("bursty", {"depth": 0.5, "backlog": 3}, seed=2)
        text = spec.canonical_json()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))


class TestDeterminism:
    @pytest.mark.parametrize("family", ["poisson", "bursty", "sporadic",
                                        "thermal-adversarial"])
    def test_same_spec_same_bytes(self, family):
        a = GeneratorSpec(family, seed=11).instantiate()
        b = GeneratorSpec(family, seed=11).instantiate()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("family", ["poisson", "bursty", "sporadic",
                                        "thermal-adversarial"])
    def test_different_seed_different_tasks(self, family):
        a = GeneratorSpec(family, seed=1).instantiate()
        b = GeneratorSpec(family, seed=2).instantiate()
        assert a["workload"]["tasks"] != b["workload"]["tasks"]

    def test_cross_process_byte_identity(self):
        """Same spec + seed reproduces byte-identical scenarios across
        processes, under adversarial hash randomization."""
        program = (
            "import json\n"
            "from repro.scenarios import GeneratorSpec\n"
            "spec = GeneratorSpec('thermal-adversarial',"
            " {'hot_jobs': 7}, seed=13)\n"
            "print(json.dumps(spec.instantiate(), sort_keys=True))\n"
            "print(spec.digest())\n"
        )
        outputs = []
        for hash_seed in ("0", "1", "random"):
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_instantiate_sets_name_and_seed(self):
        data = GeneratorSpec("poisson", seed=4).instantiate()
        assert data["name"] == "poisson-s4"
        assert data["seed"] == 4

    def test_generate_scenario_convenience(self):
        direct = generate_scenario("poisson", seed=4)
        via_spec = GeneratorSpec("poisson", seed=4).instantiate()
        assert direct == via_spec


class TestExpansion:
    def test_top_level_keys_override_generated(self):
        data = {
            "generator": {"family": "poisson"},
            "policy": "baseline",
            "duration_s": 7,
            "seed": 3,
        }
        expanded = expand_generated(data)
        assert expanded["policy"] == "baseline"
        assert expanded["duration_s"] == 7
        assert expanded["name"] == "poisson-s3"

    def test_generator_seed_defaults_to_scenario_seed(self):
        a = expand_generated({"generator": {"family": "poisson"}, "seed": 8})
        b = GeneratorSpec("poisson", seed=8).instantiate()
        assert a["workload"] == b["workload"]

    def test_explicit_generator_seed_wins(self):
        a = expand_generated(
            {"generator": {"family": "poisson", "seed": 2}, "seed": 8}
        )
        b = GeneratorSpec("poisson", seed=2).instantiate()
        assert a["workload"] == b["workload"]
        assert a["seed"] == 8  # the simulation seed stays the sweep's

    def test_parse_scenario_expands_generator_key(self):
        scenario = parse_scenario({
            "generator": {"family": "sporadic",
                          "params": {"n_tasks": 4, "horizon_s": 20.0}},
            "seed": 2,
            "duration_s": 5,
        })
        assert len(scenario.workload) >= 4
        assert scenario.duration_s == 5.0

    def test_non_mapping_generator_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            expand_generated({"generator": "poisson"})


class TestFamilyValidation:
    @pytest.mark.parametrize("family,params", [
        ("poisson", {"rate_per_s": float("nan")}),
        ("poisson", {"rate_per_s": -1.0}),
        ("poisson", {"horizon_s": float("inf")}),
        ("poisson", {"backlog": -1}),
        ("poisson", {"backlog": True}),
        ("poisson", {"programs": []}),
        ("poisson", {"programs": ["vi"]}),
        ("bursty", {"depth": 1.5}),
        ("bursty", {"period_s": 0.0}),
        ("sporadic", {"utilization": float("nan")}),
        ("sporadic", {"n_tasks": 0}),
        ("thermal-adversarial", {"budget_w": float("nan")}),
        ("thermal-adversarial", {"duty": 0.99}),
        ("thermal-adversarial", {"rotate_groups": 64}),
        ("thermal-adversarial", {"hot_program": "emacs"}),
    ])
    def test_bad_params_rejected_at_generation(self, family, params):
        with pytest.raises(ValueError, match=family):
            GeneratorSpec(family, params).instantiate()

    def test_sporadic_period_bounds_cross_checked(self):
        with pytest.raises(ValueError, match="period_max_s"):
            GeneratorSpec("sporadic", {
                "period_min_s": 10.0, "period_max_s": 2.0,
            }).instantiate()

    def test_sporadic_periods_past_the_horizon_still_release(self):
        """A period longer than the horizon must not push a task's first
        release past it: every task releases at least one job."""
        params = {"n_tasks": 1, "period_min_s": 1.5, "period_max_s": 6.0,
                  "horizon_s": 2.0}
        for seed in range(200):
            data = GeneratorSpec("sporadic", params, seed=seed).instantiate()
            assert data["workload"]["tasks"], seed

    def test_sporadic_default_instances_are_pinned(self):
        """Default instances (every period within the horizon) are
        pinned byte for byte: the first-release clip draws no extra
        random numbers."""
        digest = hashlib.sha256()
        for seed in range(1, 6):
            data = GeneratorSpec("sporadic", seed=seed).instantiate()
            digest.update(json.dumps(data, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "433222557eece142eeebb37ecec8585be2369721c303c50b214edac12c3026ac"
        )


class TestCustomFamily:
    def test_register_and_generate(self):
        family = ScenarioFamily(
            name="unit-test-family",
            description="one fixed task",
            defaults={"n": 1},
            generate=lambda params, rng: {
                "machine": machine_dict("smp2"),
                "workload": {"tasks": [
                    {"program": "aluadd"} for _ in range(params["n"])
                ]},
                "duration_s": 1.0,
            },
        )
        try:
            register_family(family)
            data = generate_scenario("unit-test-family", {"n": 3}, seed=1)
            assert len(data["workload"]["tasks"]) == 3
        finally:
            from repro.scenarios import registry
            registry._REGISTRY.pop("unit-test-family", None)

    def test_non_json_generation_fails_loudly(self):
        family = ScenarioFamily(
            name="unit-test-nonjson",
            description="leaks a tuple",
            defaults={},
            generate=lambda params, rng: {"workload": {"tasks": ()}},
        )
        try:
            register_family(family)
            with pytest.raises(ValueError, match="JSON"):
                generate_scenario("unit-test-nonjson")
        finally:
            from repro.scenarios import registry
            registry._REGISTRY.pop("unit-test-nonjson", None)
