"""Differential oracle: agreement on clean code, divergence when forced.

The oracle's job is to *localise* a fast/scalar split to its first tick,
so the negative tests matter as much as the positive ones: a pair of
deliberately different systems must produce a first-divergence report,
and the report must point at a tick and a field set.
"""

import pytest

from repro.config import SystemConfig
from repro.core.policyspec import policy_names
from repro.cpu.topology import MachineSpec
from repro.system import System
from repro.validate import differential_replay, replay_pair, smt_relabel_check
from repro.validate.oracle import probe, summary_bytes
from repro.workloads.generator import mixed_table2_workload


def smp_config(n=4, **kwargs):
    defaults = dict(
        machine=MachineSpec.smp(n), max_power_per_cpu_w=60.0, seed=42,
        sample_interval_s=0.5,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def smt_config():
    return SystemConfig(
        machine=MachineSpec.cmp(packages=2, cores=2, smt=True),
        max_power_per_cpu_w=60.0, seed=42, sample_interval_s=0.5,
    )


class TestDifferentialReplay:
    def test_paths_identical_on_clean_code(self):
        report = differential_replay(
            smp_config(), mixed_table2_workload(1), duration_s=2.0
        )
        assert report.identical
        assert report.divergence is None
        assert report.summaries_identical
        assert summary_bytes(report.summary_a) == summary_bytes(
            report.summary_b
        )

    @pytest.mark.parametrize("policy", policy_names())
    def test_paths_identical_under_each_policy(self, policy):
        report = differential_replay(
            smp_config(), mixed_table2_workload(1), policy=policy,
            duration_s=1.0,
        )
        assert report.identical

    def test_probe_every_thins_comparisons_without_blinding_summaries(self):
        report = differential_replay(
            smp_config(), mixed_table2_workload(1), duration_s=1.0,
            probe_every=25,
        )
        assert report.identical

    def test_forced_divergence_reports_first_tick(self):
        # Different seeds are a stand-in for a real fast/scalar split:
        # the replays genuinely differ from early on.
        workload = mixed_table2_workload(1)
        system_a = System(smp_config(seed=1), workload)
        system_b = System(smp_config(seed=2), workload)
        report = replay_pair(system_a, system_b, n_ticks=100)
        assert not report.identical
        assert report.divergence is not None
        assert 1 <= report.divergence.tick <= 100
        assert report.divergence.fields
        payload = report.to_dict()
        assert payload["identical"] is False
        assert payload["divergence"]["fields"] == list(
            report.divergence.fields
        )

    def test_divergence_details_hold_both_sides(self):
        workload = mixed_table2_workload(1)
        system_a = System(smp_config(seed=1), workload)
        system_b = System(smp_config(seed=2), workload)
        report = replay_pair(system_a, system_b, n_ticks=50)
        assert report.divergence is not None
        for name in report.divergence.fields:
            a, b = report.divergence.details[name]
            assert a != b

    def test_bad_arguments_rejected(self):
        workload = mixed_table2_workload(1)
        system_a = System(smp_config(), workload)
        system_b = System(smp_config(), workload)
        with pytest.raises(ValueError):
            replay_pair(system_a, system_b, n_ticks=0)
        with pytest.raises(ValueError):
            replay_pair(system_a, system_b, n_ticks=10, probe_every=0)

    def test_probe_is_a_snapshot(self):
        """Probes must not alias live state, or late diffs lie."""
        system = System(smp_config(), mixed_table2_workload(1))
        snap = probe(system)
        system._est_power[0] += 1.0
        assert snap["est_power"][0] != system._est_power[0]


class TestMetamorphicRelabeling:
    def test_inapplicable_without_smt(self):
        report = smt_relabel_check(
            smp_config(), mixed_table2_workload(1), duration_s=1.0
        )
        assert not report.applicable
        assert "threads_per_core" in report.reason
        assert report.ok  # inapplicable is not a failure

    def test_sibling_swap_preserves_energy_and_jobs(self):
        report = smt_relabel_check(
            smt_config(), mixed_table2_workload(1), duration_s=2.0
        )
        assert report.applicable
        assert report.ok
        assert report.energy_a_j == pytest.approx(report.energy_b_j,
                                                  rel=1e-9)
        assert report.jobs_a == pytest.approx(report.jobs_b, rel=1e-9)
        assert report.energy_a_j > 0.0

    @pytest.mark.parametrize("policy", policy_names())
    def test_sibling_swap_holds_under_each_policy(self, policy):
        report = smt_relabel_check(
            smt_config(), mixed_table2_workload(1), policy=policy,
            duration_s=2.0,
        )
        assert report.applicable
        assert report.ok

    def test_report_round_trips_to_dict(self):
        report = smt_relabel_check(
            smp_config(), mixed_table2_workload(1), duration_s=1.0
        )
        payload = report.to_dict()
        assert payload["applicable"] is False
        assert set(payload) == {
            "applicable", "reason", "ok", "energy_a_j", "energy_b_j",
            "jobs_a", "jobs_b",
        }


class TestGeneratedScenarios:
    """The generator families exercise churn shapes (open-loop exits,
    sporadic releases, rotating affinity) the static mixes never do;
    the fast/scalar replay must stay byte-identical on them too."""

    @pytest.mark.parametrize("family,params", [
        ("poisson", {"machine": "smp4", "horizon_s": 3.0}),
        ("sporadic", {"machine": "smp4", "n_tasks": 4, "utilization": 1.5,
                      "horizon_s": 4.0}),
        ("thermal-adversarial", {"machine": "smp4", "hot_jobs": 2,
                                 "cool_fill": 3, "rotate_groups": 2,
                                 "horizon_s": 3.0}),
    ])
    def test_paths_identical_on_generated_churn(self, family, params):
        from repro.scenarios import GeneratorSpec

        scenario = GeneratorSpec(family, params, seed=3).build()
        report = differential_replay(
            scenario.config, scenario.workload, policy=scenario.policy,
            duration_s=2.0,
        )
        assert report.identical, report.to_dict()
