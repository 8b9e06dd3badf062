"""Integration: workload generation -> placement -> audit -> comparison."""

from repro import (CubeFit, RFI, RobustBestFit, audit, best_lower_bound)
from repro.sim.runner import compare
from repro.workloads.distributions import (NormalizedClients, UniformLoad,
                                           ZipfClients)
from repro.workloads.sequences import generate_sequence


class TestPipeline:
    def test_all_algorithms_place_same_sequence_robustly(self):
        seq = generate_sequence(UniformLoad(0.6), 400, seed=5)
        for factory, failures in [
                (lambda: CubeFit(gamma=2, num_classes=10), None),
                (lambda: RFI(gamma=2), 1),
                (lambda: RobustBestFit(gamma=2), None)]:
            algo = factory()
            algo.consolidate(seq)
            assert audit(algo.placement, failures=failures).ok
            assert algo.placement.num_tenants == 400

    def test_cubefit_beats_rfi_on_small_tenants(self):
        """The headline claim at moderate scale: on small-tenant
        populations CubeFit uses measurably fewer servers than RFI at
        matched protection (gamma = 2, both tolerate one failure)."""
        factories = {
            "cubefit": lambda: CubeFit(gamma=2, num_classes=10),
            "rfi": lambda: RFI(gamma=2),
        }
        dist = NormalizedClients(ZipfClients(3.0, 52))
        result = compare(factories, dist, n_tenants=3000, runs=2,
                         base_seed=0)
        savings = result.savings_percent("rfi", "cubefit")
        assert savings > 10.0, f"expected >10% savings, got {savings:.1f}%"

    def test_gamma3_trades_consolidation_for_protection(self):
        """Section V-B: 'CUBEFIT with 3 replicas ... trading off
        consolidation for the additional protection.'  CubeFit gamma=3
        reserves for two failures, so it may use *more* servers than a
        single-failure-reserving RFI — but never wildly more."""
        factories = {
            "cubefit": lambda: CubeFit(gamma=3, num_classes=10),
            "rfi": lambda: RFI(gamma=3),
        }
        dist = NormalizedClients(ZipfClients(3.0, 52))
        result = compare(factories, dist, n_tenants=3000, runs=2,
                         base_seed=0)
        cube = result.mean_servers("cubefit")
        rfi = result.mean_servers("rfi")
        assert cube < 1.5 * rfi

    def test_cubefit_near_lower_bound_on_uniform(self):
        seq = generate_sequence(UniformLoad(0.3), 2000, seed=9)
        algo = CubeFit(gamma=2, num_classes=10)
        algo.consolidate(seq)
        lb = best_lower_bound(seq.loads, 2, 10)
        ratio = algo.placement.num_servers / lb
        assert ratio < 2.0

    def test_utilization_improves_with_first_stage(self):
        """Ablation: the m-fit first stage lifts utilization."""
        seq = generate_sequence(UniformLoad(0.5), 1500, seed=11)
        with_stage = CubeFit(gamma=2, num_classes=10)
        with_stage.consolidate(seq)
        without = CubeFit(gamma=2, num_classes=10, first_stage=False)
        without.consolidate(seq)
        assert with_stage.placement.num_servers <= \
            without.placement.num_servers
        assert audit(without.placement).ok
