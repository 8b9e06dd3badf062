"""Regression tests for the mixed-gamma placement path.

The load-bearing property: :class:`MixedGammaFirstFit` under an
all-equal plan is *bit-identical* to :class:`RobustFirstFit` — same
packing fingerprint, same observability journal — so the mixed path is
provably the single-gamma path plus a per-tenant lookup, not a fork
that can drift.
"""

import pytest

from repro.algorithms.mixed import MixedGammaFirstFit
from repro.algorithms.naive import RobustFirstFit
from repro.analysis.sla import SlaPolicy, gamma_map
from repro.core.tenant import Tenant
from repro.core.validation import audit
from repro.errors import ConfigurationError
from repro.obs import EventJournal, MetricsRegistry
from tests.oracles import failure_set_audit


def _tenants(seed, n=40, high=0.6):
    import random
    rng = random.Random(seed)
    return [Tenant(tenant_id=i, load=round(rng.uniform(0.05, high), 2))
            for i in range(n)]


def _journal_events(journal):
    # Drop wall-clock durations: identity is about decisions, not time.
    return [(e.type, {k: v for k, v in e.data.items()
                      if k != "seconds"}) for e in journal]


class TestAllEqualPlanBitIdentity:
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_matches_single_gamma_path_exactly(self, gamma):
        tenants = _tenants(seed=11)
        single_journal, mixed_journal = EventJournal(), EventJournal()
        single = RobustFirstFit(gamma=gamma)
        single.attach_obs(MetricsRegistry(journal=single_journal))
        mixed = MixedGammaFirstFit({t.tenant_id: gamma for t in tenants},
                                   gamma=gamma)
        mixed.attach_obs(MetricsRegistry(journal=mixed_journal))
        for tenant in tenants:
            single.place(tenant)
            mixed.place(tenant)
        assert mixed.placement.snapshot() == single.placement.snapshot()
        assert _journal_events(mixed_journal) == \
            _journal_events(single_journal)
        assert mixed.failures == single.failures


class TestMixedPlans:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_audits_clean_under_per_tenant_budgets(self, seed):
        tenants = _tenants(seed=seed, n=30)
        plan = {t.tenant_id: 1 + t.tenant_id % 3 for t in tenants}
        algo = MixedGammaFirstFit(plan, gamma=2)
        assert algo.failures == 2  # max plan gamma - 1
        for tenant in tenants:
            servers = algo.place(tenant)
            assert len(servers) == plan[tenant.tenant_id]
            assert len(set(servers)) == len(servers)
        assert audit(algo.placement, failures=algo.failures).ok
        assert failure_set_audit(algo.placement,
                                 failures=algo.failures).ok

    def test_gamma_map_plan_end_to_end(self):
        # Loads spanning the SLA regimes produce a genuinely mixed
        # plan; the packing still audits clean at the worst budget.
        tenants = [Tenant(tenant_id=i, load=load) for i, load in
                   enumerate([0.1, 0.2, 0.55, 0.8, 0.85, 0.3])]
        plan = gamma_map(tenants, 0.01,
                         SlaPolicy(failure_prob=0.05, overload=0.75))
        assert len(set(plan.values())) > 1
        algo = MixedGammaFirstFit(plan, gamma=2)
        for tenant in tenants:
            algo.place(tenant)
        assert audit(algo.placement, failures=algo.failures).ok

    def test_unplanned_tenant_uses_default_gamma(self):
        algo = MixedGammaFirstFit({0: 3}, gamma=2)
        assert algo.tenant_gamma(0) == 3
        assert algo.tenant_gamma(99) == 2
        servers = algo.place(Tenant(tenant_id=99, load=0.4))
        assert len(servers) == 2

    def test_remove_round_trip(self):
        algo = MixedGammaFirstFit({0: 3, 1: 1}, gamma=2)
        algo.place(Tenant(tenant_id=0, load=0.3))
        algo.place(Tenant(tenant_id=1, load=0.5))
        algo.remove(0)
        assert algo.placement.num_tenants == 1
        assert audit(algo.placement, failures=algo.failures).ok

    def test_describe_reports_plan_shape(self):
        algo = MixedGammaFirstFit({0: 1, 1: 3, 2: 3}, gamma=2)
        info = algo.describe()
        assert info["algorithm"] == "mixed-firstfit"
        assert info["plan_tenants"] == 3
        assert info["plan_gammas"] == [1, 3]
        assert info["failures"] == 2


class TestValidation:
    def test_bad_plan_gamma_rejected(self):
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            MixedGammaFirstFit({0: 0})

    def test_explicit_failures_override(self):
        algo = MixedGammaFirstFit({0: 3}, gamma=2, failures=1)
        assert algo.failures == 1

    def test_refuses_durable_store(self):
        algo = MixedGammaFirstFit({0: 3}, gamma=2)
        with pytest.raises(ConfigurationError, match="durable store"):
            algo.attach_store(object())
        algo.attach_store(None)  # detaching is always allowed
        assert algo.store is None
