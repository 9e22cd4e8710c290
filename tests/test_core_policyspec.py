"""PolicySpec: registry, coercion, equality/hash compatibility."""

import pickle

import pytest

from repro.core.policyspec import (
    POLICY_REGISTRY,
    PolicySpec,
    canonical_policy_value,
    definition_by_name,
    policy_names,
)


class TestRegistry:
    def test_paper_policies_registered(self):
        names = policy_names()
        assert "energy" in names
        assert "baseline" in names
        assert "hlt-throttle" in names

    def test_three_dvfs_variants(self):
        dvfs = [n for n in policy_names()
                if definition_by_name(n).dvfs is not None]
        assert len(dvfs) >= 3

    def test_definitions_have_descriptions(self):
        for definition in POLICY_REGISTRY:
            assert definition.name
            assert definition.description

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="energy"):
            definition_by_name("nope")


class TestCoercion:
    def test_string(self):
        spec = PolicySpec.coerce("energy")
        assert spec.name == "energy"
        assert not spec.params

    def test_string_case_insensitive(self):
        assert PolicySpec.coerce("ENERGY").name == "energy"

    def test_spec_passthrough(self):
        spec = PolicySpec("dvfs-reactive")
        assert PolicySpec.coerce(spec) is spec

    def test_mapping(self):
        spec = PolicySpec.coerce(
            {"name": "dvfs-reactive", "params": {"step_up_margin_w": 4.0}}
        )
        assert spec.name == "dvfs-reactive"
        assert spec.param("step_up_margin_w") == 4.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicySpec.coerce("turbo")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="step_up_margin_w"):
            PolicySpec("dvfs-reactive", {"voltage": 1.2})

    def test_param_on_paramless_policy_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("baseline", {"levels": (1.0, 0.5)})


class TestNormalization:
    def test_default_equal_params_dropped(self):
        explicit = PolicySpec("dvfs-reactive", {"step_up_margin_w": 2.0})
        assert not explicit.params
        assert explicit == PolicySpec("dvfs-reactive")

    def test_tuple_params_normalized(self):
        spec = PolicySpec("dvfs-reactive", {"levels": [1.0, 0.5]})
        assert spec.param("levels") == (1.0, 0.5)

    def test_params_read_only(self):
        spec = PolicySpec("dvfs-reactive", {"step_up_margin_w": 3.0})
        with pytest.raises(TypeError):
            spec.params["step_up_margin_w"] = 9.0

    def test_effective_params_merge_defaults(self):
        spec = PolicySpec("dvfs-reactive", {"step_up_margin_w": 3.0})
        effective = spec.effective_params()
        assert effective["step_up_margin_w"] == 3.0
        assert "levels" in effective


class TestStringCompatibility:
    """Paramless specs are drop-in for the plain strings they replaced."""

    def test_eq_and_hash_match_plain_string(self):
        spec = PolicySpec("energy")
        assert spec == "energy"
        assert hash(spec) == hash("energy")
        assert len({spec, "energy"}) == 1

    def test_parameterized_spec_not_equal_to_name(self):
        spec = PolicySpec("dvfs-reactive", {"step_up_margin_w": 3.0})
        assert spec != "dvfs-reactive"
        assert spec != PolicySpec("dvfs-reactive")

    def test_parameterized_specs_compare_by_value(self):
        a = PolicySpec("dvfs-reactive", {"step_up_margin_w": 3.0})
        b = PolicySpec("dvfs-reactive", {"step_up_margin_w": 3.0})
        assert a == b
        assert hash(a) == hash(b)

    def test_pickle_round_trip(self):
        spec = PolicySpec("dvfs-proactive", {"target_margin_c": 5.0})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.param("target_margin_c") == 5.0


class TestCanonicalValue:
    def test_paramless_renders_as_plain_name(self):
        assert canonical_policy_value("energy") == "energy"
        assert canonical_policy_value(PolicySpec("energy")) == "energy"

    def test_parameterized_renders_as_mapping(self):
        value = canonical_policy_value(
            PolicySpec("dvfs-reactive", {"levels": (1.0, 0.5)})
        )
        assert value == {"name": "dvfs-reactive",
                         "params": {"levels": [1.0, 0.5]}}


class TestBehaviorFlags:
    def test_scheduling_kinds(self):
        assert PolicySpec("baseline").scheduling == "baseline"
        assert PolicySpec("energy").scheduling == "energy"
        assert PolicySpec("dvfs-reactive").scheduling == "energy"

    def test_dvfs_kinds(self):
        assert PolicySpec("energy").dvfs_kind is None
        assert PolicySpec("dvfs-reactive").dvfs_kind == "reactive"
        assert PolicySpec("dvfs-proactive").dvfs_kind == "proactive"
        assert PolicySpec("dvfs-hybrid").dvfs_kind == "reactive"

    def test_hybrid_keeps_hot_migration(self):
        assert PolicySpec("dvfs-hybrid").hot_migration
        assert not PolicySpec("dvfs-reactive").hot_migration
        assert not PolicySpec("dvfs-proactive").hot_migration

    def test_throttle_override(self):
        from repro.cpu.throttle import ThrottleConfig

        base = ThrottleConfig(enabled=False, mode="hlt")
        forced = PolicySpec("dvfs-reactive").throttle_override(base)
        assert forced is not None
        assert forced.enabled and forced.mode == "dvfs"
        assert PolicySpec("energy").throttle_override(base) is None

    def test_dvfs_config_built_from_params(self):
        spec = PolicySpec("dvfs-reactive", {"step_up_margin_w": 3.0})
        config = spec.dvfs_config()
        assert config.step_up_margin_w == 3.0
        assert PolicySpec("energy").dvfs_config() is None
