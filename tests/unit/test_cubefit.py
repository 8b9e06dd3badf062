"""Behavioural tests for the CUBEFIT algorithm."""

import numpy as np
import pytest

from repro.core.config import CubeFitConfig
from repro.core.cubefit import CubeFit, TAG_CLASS, TAG_MATURE
from repro.core.tenant import make_tenants
from repro.core.validation import audit
from repro.errors import ConfigurationError
from tests.oracles import (exact_failover_load, failure_set_audit,
                           max_shared_tenants)


def consolidate(loads, gamma=2, **kwargs):
    algo = CubeFit(gamma=gamma, **kwargs)
    algo.consolidate(make_tenants(loads))
    return algo


class TestBasics:
    def test_single_tenant_uses_gamma_servers(self):
        algo = consolidate([0.6], gamma=3, num_classes=5)
        assert algo.placement.num_nonempty_servers == 3
        homes = algo.placement.tenant_servers(0)
        assert len(set(homes.values())) == 3

    def test_every_tenant_fully_placed(self, seeded_loads):
        loads = seeded_loads(200, seed=1)
        algo = consolidate(loads, gamma=2, num_classes=10)
        for tid in range(len(loads)):
            assert len(algo.placement.tenant_servers(tid)) == 2

    def test_gamma_config_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            CubeFit(gamma=3, config=CubeFitConfig(gamma=2))

    def test_config_and_kwargs_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            CubeFit(gamma=2, config=CubeFitConfig(gamma=2), num_classes=5)

    def test_describe_includes_stats(self):
        algo = consolidate([0.5, 0.5], num_classes=5)
        info = algo.describe()
        assert info["algorithm"] == "cubefit"
        assert info["K"] == 5
        assert "stats" in info


class TestRobustness:
    """Theorem 1: no bin overloaded under any gamma-1 failures."""

    @pytest.mark.parametrize("gamma,K", [(2, 5), (2, 10), (3, 5), (3, 10)])
    def test_audit_random_uniform(self, gamma, K, seeded_loads):
        loads = seeded_loads(300, 0.001, 1.0, seed=42)
        algo = consolidate(loads, gamma=gamma, num_classes=K)
        report = audit(algo.placement)
        assert report.ok, str(report)
        assert report.min_slack >= -1e-9

    def test_brute_force_agrees_small_instance(self, seeded_loads):
        loads = seeded_loads(25, 0.05, 1.0, seed=7)
        algo = consolidate(loads, gamma=3, num_classes=5)
        assert failure_set_audit(algo.placement).ok
        assert failure_set_audit(algo.placement,
                                 failover=exact_failover_load).ok

    def test_tiny_only_workload(self):
        loads = [0.02] * 100
        algo = consolidate(loads, gamma=2, num_classes=10)
        assert audit(algo.placement).ok
        assert algo.stats["multireplicas"] >= 1

    def test_large_only_workload(self):
        loads = [0.95] * 40
        algo = consolidate(loads, gamma=2, num_classes=10)
        assert audit(algo.placement).ok
        # class-1 replicas: one data slot per bin
        assert algo.placement.num_nonempty_servers == 80

    def test_mixed_boundary_loads(self):
        # Loads sitting exactly on class boundaries.
        loads = [2 / 3, 0.5, 0.4, 1 / 3, 0.25, 0.2, 1.0, 0.02]
        algo = consolidate(loads, gamma=2, num_classes=5)
        assert failure_set_audit(algo.placement).ok


class TestStructure:
    def test_lemma1_without_first_stage(self, seeded_loads):
        """Pure second-stage, non-tiny packings: any two bins share at
        most one tenant."""
        # all replicas in classes 1..K-1 (avoid multi-replicas)
        loads = seeded_loads(120, 0.34, 1.0, seed=3)
        algo = consolidate(loads, gamma=2, num_classes=5,
                           first_stage=False)
        assert max_shared_tenants(algo.placement) <= 1

    def test_bins_tagged_with_class(self):
        algo = consolidate([0.9, 0.9], gamma=2, num_classes=5,
                           first_stage=False)
        for server in algo.placement:
            if len(server) > 0:
                assert server.tags[TAG_CLASS] == 1

    def test_mature_bins_have_full_slots(self, seeded_loads):
        loads = seeded_loads(60, 0.3, 1.0, seed=5)
        algo = consolidate(loads, gamma=2, num_classes=5)
        mature = [s for s in algo.placement if s.tags.get(TAG_MATURE)]
        for server in mature:
            assert server.tags["slots_filled"] >= server.tags[TAG_CLASS]

    def test_first_stage_places_smaller_replicas_in_mature_bins(self):
        # Two class-1 tenants make mature bins; a small tenant should
        # then m-fit into them rather than opening new servers.
        algo = CubeFit(gamma=2, num_classes=5)
        algo.consolidate(make_tenants([0.9, 0.9]))
        servers_before = algo.placement.num_nonempty_servers
        algo.consolidate(make_tenants([0.08], start_id=2))
        assert algo.stats["first_stage_tenants"] == 1
        assert algo.placement.num_nonempty_servers == servers_before

    def test_first_stage_disabled(self):
        algo = CubeFit(gamma=2, num_classes=5, first_stage=False)
        algo.consolidate(make_tenants([0.9, 0.9, 0.08]))
        assert algo.stats["first_stage_tenants"] == 0

    def test_same_class_first_stage_restriction(self):
        """By default a replica may not m-fit a bin of its own class."""
        strict = CubeFit(gamma=2, num_classes=5)
        strict.consolidate(make_tenants([0.9] * 6))
        assert strict.stats["first_stage_tenants"] == 0

    def test_stats_partition_tenants(self):
        rng = np.random.default_rng(11)
        loads = list(rng.uniform(0.01, 1.0, 150))
        algo = consolidate(loads, gamma=2, num_classes=10)
        s = algo.stats
        assert (s["first_stage_tenants"] + s["cube_tenants"]
                + s["tiny_tenants"]) == 150


class TestDeterminism:
    def test_same_input_same_packing(self):
        rng = np.random.default_rng(13)
        loads = list(rng.uniform(0.01, 1.0, 100))
        a = consolidate(loads, gamma=2, num_classes=10)
        b = consolidate(loads, gamma=2, num_classes=10)
        assert a.placement.snapshot() == b.placement.snapshot()


class TestTinyPolicies:
    def test_alpha_policy_requires_large_k(self):
        with pytest.raises(ConfigurationError):
            CubeFit(gamma=2, num_classes=6, tiny_policy="alpha")

    def test_alpha_policy_valid_and_robust(self):
        rng = np.random.default_rng(17)
        loads = list(rng.uniform(0.005, 0.15, 150))
        algo = consolidate(loads, gamma=2, num_classes=12,
                           tiny_policy="alpha")
        assert audit(algo.placement).ok
        assert algo.stats["tiny_tenants"] > 0

    def test_last_class_policy_targets_k_minus_1(self):
        algo = CubeFit(gamma=2, num_classes=10)
        assert algo._tiny_policy.target_class == 9

    def test_multireplica_never_exceeds_slot(self):
        rng = np.random.default_rng(19)
        loads = list(rng.uniform(0.005, 0.17, 300))
        algo = consolidate(loads, gamma=2, num_classes=10)
        policy = algo._tiny_policy
        for multi in algo._multireplicas:
            assert multi.size <= policy.threshold + 1e-9
