"""Unit tests for the fault-domain extension."""

import numpy as np
import pytest

from repro.core.cubefit import CubeFit
from repro.core.tenant import Tenant, make_tenants
from repro.core.validation import audit


def loads(n, lo=0.05, hi=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(lo, hi, n))


class TestDomainsOfCubeBins:
    def test_stage2_bins_tagged_with_group(self):
        algo = CubeFit(gamma=3, num_classes=5, first_stage=False)
        algo.consolidate(make_tenants([0.55] * 27))
        domains = {algo.server_domain(s.server_id)
                   for s in algo.placement if len(s) > 0}
        assert domains == {0, 1, 2}

    def test_pure_stage2_spans_domains_by_construction(self):
        algo = CubeFit(gamma=2, num_classes=5, first_stage=False)
        algo.consolidate(make_tenants(loads(150, lo=0.34)))
        assert algo.domains_respected()


class TestEnforcement:
    @pytest.mark.parametrize("gamma", [2, 3])
    def test_enforced_packing_spans_domains(self, gamma):
        algo = CubeFit(gamma=gamma, num_classes=5,
                       enforce_fault_domains=True)
        algo.consolidate(make_tenants(loads(200, seed=1)))
        assert algo.domains_respected()
        assert audit(algo.placement).ok

    def test_unenforced_first_stage_may_mix_domains(self):
        """Documents why the flag exists: without it, m-fit placements
        can co-locate a tenant's replicas inside one domain."""
        algo = CubeFit(gamma=2, num_classes=5,
                       enforce_fault_domains=False)
        algo.consolidate(make_tenants(loads(400, seed=3)))
        # Not asserting a violation (it depends on the draw), just that
        # the respected-check machinery runs and the packing is robust.
        algo.domains_respected()
        assert audit(algo.placement).ok

    def test_enforcement_costs_at_most_a_few_servers(self):
        plain = CubeFit(gamma=2, num_classes=10)
        plain.consolidate(make_tenants(loads(600, seed=5)))
        fenced = CubeFit(gamma=2, num_classes=10,
                         enforce_fault_domains=True)
        fenced.consolidate(make_tenants(loads(600, seed=5)))
        assert fenced.placement.num_servers <= \
            1.25 * plain.placement.num_servers

    def test_enforced_with_churn(self):
        rng = np.random.default_rng(7)
        algo = CubeFit(gamma=2, num_classes=5,
                       enforce_fault_domains=True)
        alive, tid = [], 0
        for _ in range(200):
            if alive and rng.random() < 0.4:
                algo.remove(alive.pop(0))
            else:
                algo.place(Tenant(tid, float(rng.uniform(0.05, 0.9))))
                alive.append(tid)
                tid += 1
        assert algo.domains_respected()
        assert audit(algo.placement).ok
