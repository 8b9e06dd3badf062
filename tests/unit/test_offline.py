"""Unit tests for offline FFD and the exact optimum it is judged by."""

import numpy as np

from repro.algorithms.offline import OfflineFirstFitDecreasing
from repro.algorithms.lower_bound import capacity_lower_bound
from repro.analysis.optimum import branch_and_bound_optimum
from repro.core.tenant import make_tenants
from repro.core.validation import audit


def _optimum(loads, gamma=2, failures=None):
    return branch_and_bound_optimum(loads, gamma, failures).optimum()


class TestOptimalServers:
    def test_empty(self):
        assert _optimum([]) == 0

    def test_single_tenant_needs_gamma_servers(self):
        assert _optimum([1.0]) == 2
        assert _optimum([0.9], gamma=3) == 3

    def test_full_load_tenants_cannot_share(self):
        """Two tenants of load 1: replicas 0.5 each plus a 0.5 reserve
        per server — no two replicas can coexist."""
        assert _optimum([1.0, 1.0]) == 4

    def test_small_tenants_pack_together(self):
        # Four tenants of 0.2: replicas 0.1; all fit on 2 servers with
        # reserve 0.4 + load 0.4 <= 1.
        assert _optimum([0.2] * 4) == 2

    def test_opt_at_least_capacity_bound(self):
        rng = np.random.default_rng(71)
        for _ in range(3):
            loads = list(rng.uniform(0.1, 0.8, 6))
            opt = _optimum(loads)
            assert opt >= capacity_lower_bound(loads)
            assert opt >= 2  # gamma distinct servers

    def test_opt_never_beaten_by_online_algorithms(self):
        from repro.core.cubefit import CubeFit
        from repro.algorithms.rfi import RFI
        rng = np.random.default_rng(73)
        loads = list(rng.uniform(0.1, 0.9, 7))
        opt = _optimum(loads)
        for algo in (CubeFit(gamma=2, num_classes=5), RFI(gamma=2)):
            algo.consolidate(make_tenants(loads))
            # RFI reserves for fewer failures than OPT's full budget,
            # so only CubeFit is strictly comparable; both must be >=
            # OPT minus nothing when reserving gamma-1 failures.
            if algo.name == "cubefit":
                assert algo.placement.num_servers >= opt

    def test_opt_matches_ffd_on_easy_instance(self):
        loads = [0.4, 0.4, 0.4, 0.4]
        opt = _optimum(loads)
        ffd = OfflineFirstFitDecreasing(gamma=2)
        ffd.consolidate(make_tenants(loads))
        assert opt <= ffd.placement.num_servers

    def test_failures_budget_zero_packs_tighter(self):
        """Without any failover reserve, packings can be denser."""
        loads = [0.5, 0.5, 0.5]
        robust = _optimum(loads, failures=1)
        non_robust = _optimum(loads, failures=0)
        assert non_robust <= robust


class TestOfflineFFD:
    def test_robust(self):
        rng = np.random.default_rng(79)
        loads = list(rng.uniform(0.01, 1.0, 150))
        algo = OfflineFirstFitDecreasing(gamma=2)
        algo.consolidate(make_tenants(loads))
        assert audit(algo.placement).ok

    def test_usually_beats_online_firstfit(self):
        """Sorting first is worth servers on adversarial-ish inputs."""
        from repro.algorithms.naive import RobustFirstFit
        rng = np.random.default_rng(83)
        loads = list(rng.uniform(0.05, 0.95, 400))
        offline = OfflineFirstFitDecreasing(gamma=2)
        offline.consolidate(make_tenants(loads))
        online = RobustFirstFit(gamma=2)
        online.consolidate(make_tenants(loads))
        assert offline.placement.num_servers <= \
            online.placement.num_servers

    def test_registered(self):
        from repro.algorithms.base import make_algorithm
        algo = make_algorithm("offline-ffd", gamma=2)
        assert algo.name == "offline-ffd"
