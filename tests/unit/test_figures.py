"""Unit tests for the figure/table harness building blocks.

The full experiments run in benchmarks/; here we exercise the harness
machinery at miniature scale.
"""

import pytest

from repro.core.cubefit import CubeFit
from repro.algorithms.rfi import RFI
from repro.sim.figures import (Table1Result, fill_cluster,
                               figure5_configurations, table1, theorem2)
from repro.sim.scenarios import ScaleProfile
from repro.workloads.distributions import DiscreteUniformClients
from repro.errors import ConfigurationError


TINY_SCALE = ScaleProfile(
    name="test", sim_tenants=300, sim_runs=2, cluster_servers=8,
    cluster_warmup=5.0, cluster_measure=10.0, theorem2_max_k=31)


class TestFillCluster:
    def test_respects_server_budget(self):
        filled = fill_cluster(lambda: CubeFit(gamma=2, num_classes=5),
                              DiscreteUniformClients(1, 15),
                              max_servers=8, seed=0)
        used = {h for homes in filled.tenant_homes.values() for h in homes}
        assert len(used) <= 8
        assert filled.num_tenants > 0
        assert filled.total_clients > 0

    def test_rejected_tenants_not_in_assignment(self):
        filled = fill_cluster(lambda: RFI(gamma=2),
                              DiscreteUniformClients(1, 15),
                              max_servers=5, seed=0)
        placement = filled.algorithm.placement
        for tid in filled.tenant_homes:
            assert len(placement.tenant_servers(tid)) == 2

    def test_denser_than_single_overflow_stop(self):
        """Admission control keeps admitting smaller tenants after a
        large one is rejected."""
        dense = fill_cluster(lambda: RFI(gamma=2),
                             DiscreteUniformClients(1, 15),
                             max_servers=6, seed=0, max_rejections=30)
        sparse = fill_cluster(lambda: RFI(gamma=2),
                              DiscreteUniformClients(1, 15),
                              max_servers=6, seed=0, max_rejections=1)
        assert dense.num_tenants >= sparse.num_tenants

    def test_homes_are_gamma_distinct_servers(self):
        filled = fill_cluster(lambda: CubeFit(gamma=3, num_classes=5),
                              DiscreteUniformClients(1, 15),
                              max_servers=12, seed=1)
        for homes in filled.tenant_homes.values():
            assert len(homes) == len(set(homes)) == 3

    def test_invalid_max_servers(self):
        with pytest.raises(ConfigurationError):
            fill_cluster(lambda: RFI(gamma=2),
                         DiscreteUniformClients(1, 15), max_servers=0)


class TestFigure5Configurations:
    def test_three_bars(self):
        configs = figure5_configurations()
        assert set(configs) == {"CubeFit 2 replicas", "CubeFit 3 replicas",
                                "RFI 2 replicas"}
        cf2 = configs["CubeFit 2 replicas"]()
        assert cf2.gamma == 2
        assert cf2.config.num_classes == 5  # K=5 in the system experiments
        rfi = configs["RFI 2 replicas"]()
        assert rfi.mu == 0.85


class TestTable1:
    def test_miniature_run(self):
        result = table1(scale=TINY_SCALE)
        assert isinstance(result, Table1Result)
        rows = result.rows()
        assert [r.distribution for r in rows] == ["Uniform", "Zipfian"]
        for row in rows:
            assert row.rfi_servers > row.cubefit_servers * 0.5
            assert row.yearly_savings_usd == pytest.approx(
                row.servers_saved * 0.822 * 8760)
            # Extrapolation scales by 50k/300
            assert row.rfi_servers_50k == pytest.approx(
                row.rfi_servers * 50000 / 300)
        assert "Table I" in str(result)


class TestTheorem2:
    def test_sweep_rows(self):
        result = theorem2(gammas=(2,), class_counts=[21, 31])
        ratios = {r.num_classes: r.ratio for r in result.rows()}
        assert ratios[21] == pytest.approx(5 / 3, abs=1e-9)
        assert result.ratio_at(2, 31) <= ratios[21]
        assert "Theorem 2" in str(result)

    def test_undefined_k_skipped(self):
        result = theorem2(gammas=(3,), class_counts=[10, 31])
        assert all(r.num_classes != 10 for r in result.rows())
