"""Unit tests for the RFI baseline."""

import pytest

from repro.algorithms.rfi import RFI, DEFAULT_MU
from repro.core.tenant import Tenant, make_tenants
from repro.core.validation import audit
from repro.errors import ConfigurationError
from tests.oracles import failure_set_audit


class TestConfiguration:
    def test_default_mu(self):
        assert RFI(gamma=2).mu == DEFAULT_MU == 0.85

    @pytest.mark.parametrize("mu", [0.0, -0.5, 1.5])
    def test_invalid_mu(self, mu):
        with pytest.raises(ConfigurationError):
            RFI(gamma=2, mu=mu)

    def test_describe(self):
        info = RFI(gamma=2, mu=0.7).describe()
        assert info["algorithm"] == "rfi"
        assert info["mu"] == 0.7


class TestPlacement:
    def test_replicas_on_distinct_servers(self):
        algo = RFI(gamma=2)
        algo.place(Tenant(0, 0.6))
        homes = algo.placement.tenant_servers(0)
        assert len(set(homes.values())) == 2

    def test_single_failure_robustness_random(self, seeded_tenants):
        algo = RFI(gamma=2)
        algo.consolidate(seeded_tenants(300, seed=31))
        assert audit(algo.placement, failures=1).ok

    def test_single_failure_robustness_gamma3(self, seeded_tenants):
        algo = RFI(gamma=3)
        algo.consolidate(seeded_tenants(150, seed=37))
        assert audit(algo.placement, failures=1).ok

    def test_brute_force_small(self, seeded_tenants):
        algo = RFI(gamma=2)
        algo.consolidate(seeded_tenants(30, 0.05, 1.0, seed=41))
        assert failure_set_audit(algo.placement, failures=1).ok

    def test_not_robust_to_two_failures_in_general(self, seeded_tenants):
        """RFI only reserves for one failure; find a workload where two
        simultaneous failures would overload (the premise of Figure 5)."""
        algo = RFI(gamma=2)
        algo.consolidate(seeded_tenants(200, 0.2, 0.6, seed=43))
        assert audit(algo.placement, failures=1).ok
        assert not audit(algo.placement, failures=2).ok

    def test_mu_caps_primary_fill(self):
        """A server's level must not exceed mu when it receives a
        tenant's first replica."""
        algo = RFI(gamma=2, mu=0.6)
        # Track levels at each primary placement.
        for tid, load in enumerate([0.8, 0.8, 0.8, 0.8]):
            tenant = Tenant(tid, load)
            before = {s.server_id: s.load for s in algo.placement}
            homes = algo.place(tenant)
            primary = homes[0]
            level_before = before.get(primary, 0.0)
            assert level_before + load / 2 <= 0.6 + 1e-9

    def test_best_fit_prefers_fullest_feasible(self):
        algo = RFI(gamma=2)
        algo.consolidate(make_tenants([0.5, 0.3]))
        # Tenant 1's replicas (0.15) should land on the fullest servers
        # hosting tenant 0's 0.25-replicas rather than new servers.
        assert algo.placement.num_nonempty_servers == 2

    def test_uses_fewer_servers_than_one_per_replica(self, seeded_tenants):
        algo = RFI(gamma=2)
        algo.consolidate(seeded_tenants(100, 0.05, 0.3, seed=47))
        assert algo.placement.num_servers < 200
