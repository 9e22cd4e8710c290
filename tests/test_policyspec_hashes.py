"""PolicySpec digest stability: cache keys survive the API redesign.

Three guarantees keep the on-disk result cache valid across the
PolicySpec introduction: plain-name and spec policy spellings hash to
byte-identical job specs, parameterized specs hash deterministically
across processes (no PYTHONHASHSEED leakage), and the code salt still
covers the policy sources so semantic changes invalidate cached
results.
"""

import json
import pathlib
import subprocess
import sys

from repro.core.policyspec import PolicySpec
from repro.runner.spec import JobSpec


def scenario_data(policy):
    return {
        "name": "digest-probe",
        "machine": {"preset": "smp", "n_cpus": 2},
        "workload": {"builder": "mixed_table2", "copies": 1},
        "policy": policy,
    }


class TestSpellingEquivalence:
    def test_string_and_spec_hash_identically(self):
        plain = JobSpec(scenario=scenario_data("energy"), duration_s=5.0)
        spec = JobSpec(
            scenario=scenario_data(PolicySpec("energy")), duration_s=5.0
        )
        assert plain.content_hash() == spec.content_hash()

    def test_default_params_hash_like_bare_name(self):
        bare = JobSpec(scenario=scenario_data("dvfs-reactive"), duration_s=5.0)
        defaulted = JobSpec(
            scenario=scenario_data(
                PolicySpec("dvfs-reactive", {"step_up_margin_w": 2.0})
            ),
            duration_s=5.0,
        )
        assert bare.content_hash() == defaulted.content_hash()

    def test_param_change_changes_hash(self):
        a = JobSpec(
            scenario=scenario_data(
                PolicySpec("dvfs-reactive", {"step_up_margin_w": 3.0})
            ),
            duration_s=5.0,
        )
        b = JobSpec(scenario=scenario_data("dvfs-reactive"), duration_s=5.0)
        assert a.content_hash() != b.content_hash()

    def test_override_policy_canonicalized_too(self):
        base = scenario_data("energy")
        a = JobSpec(scenario=base,
                    overrides={"policy": PolicySpec("baseline")})
        b = JobSpec(scenario=base, overrides={"policy": "baseline"})
        assert a.content_hash() == b.content_hash()

    def test_canonical_dict_round_trips_through_json(self):
        spec = JobSpec(
            scenario=scenario_data(
                PolicySpec("dvfs-proactive", {"target_margin_c": 5.0})
            ),
            duration_s=5.0,
        )
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.content_hash() == spec.content_hash()


class TestCrossProcessDeterminism:
    def test_parameterized_digest_stable_across_processes(self):
        """Run the digest in fresh interpreters with different hash
        seeds; a hash()-dependent canonical form would diverge."""
        program = (
            "from repro.runner.spec import JobSpec\n"
            "from repro.core.policyspec import PolicySpec\n"
            "spec = JobSpec(scenario={\n"
            "    'name': 'digest-probe',\n"
            "    'machine': {'preset': 'smp', 'n_cpus': 2},\n"
            "    'workload': {'builder': 'mixed_table2', 'copies': 1},\n"
            "    'policy': PolicySpec('dvfs-reactive',\n"
            "                         {'levels': (1.0, 0.5),\n"
            "                          'step_up_margin_w': 4.0}),\n"
            "}, duration_s=5.0)\n"
            "print(spec.content_hash())\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        digests = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


class TestCacheSaltCoverage:
    def test_salt_covers_policy_sources(self):
        """Editing policy semantics must invalidate cached results."""
        import repro
        from repro.runner.cache import _SALT_PATTERNS

        package_root = pathlib.Path(repro.__file__).resolve().parent
        covered = {
            p for pattern in _SALT_PATTERNS
            for p in package_root.rglob(pattern)
        }
        assert package_root / "core" / "policyspec.py" in covered
        assert package_root / "cpu" / "dvfs.py" in covered
