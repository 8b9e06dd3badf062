"""Unit tests for the sensitivity and elasticity harnesses."""

import pytest

from repro.algorithms.base import OnlinePlacementAlgorithm
from repro.algorithms.rfi import RFI
from repro.core.cubefit import CubeFit
from repro.core.tenant import Tenant
from repro.sim.elasticity import ElasticityConfig, run_elasticity
from repro.sim.sensitivity import k_sensitivity, mu_sensitivity
from repro.workloads.distributions import TraceLoads, UniformLoad
from repro.errors import ConfigurationError


class TestMuSensitivity:
    @pytest.fixture(scope="class")
    def curve(self):
        return mu_sensitivity(UniformLoad(0.4), n_tenants=400,
                              mus=(0.6, 0.85, 1.0), seed=0)

    def test_one_point_per_mu(self, curve):
        assert [p.parameter for p in curve.points] == [0.6, 0.85, 1.0]

    def test_servers_positive(self, curve):
        assert all(p.servers > 0 for p in curve.points)

    def test_servers_at(self, curve):
        assert curve.servers_at(0.85) == curve.points[1].servers
        with pytest.raises(ConfigurationError):
            curve.servers_at(0.77)

    def test_best(self, curve):
        best = curve.best()
        assert best.servers == min(p.servers for p in curve.points)

    def test_table(self, curve):
        assert "mu sensitivity" in str(curve)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            mu_sensitivity(UniformLoad(0.4), mus=())


class TestKSensitivity:
    def test_curve_shape(self):
        curve = k_sensitivity(UniformLoad(0.4), n_tenants=400,
                              ks=(2, 5, 10), seed=0)
        assert len(curve.points) == 3
        assert curve.parameter_name == "K"
        # The paper's guidance: very few classes pack worse than K~5-10.
        assert curve.servers_at(2) >= curve.servers_at(5)


class TestElasticity:
    @pytest.fixture(scope="class")
    def result(self):
        return run_elasticity(
            lambda: CubeFit(gamma=2, num_classes=10), UniformLoad(0.4),
            ElasticityConfig(n_tenants=80, n_updates=120, seed=0))

    def test_counts_partition(self, result):
        assert result.updates == 120
        assert result.migrations + result.in_place == result.updates

    def test_robust_throughout(self, result):
        assert result.robust_throughout

    def test_rates(self, result):
        assert 0.0 <= result.migration_rate <= 1.0

    def test_table(self, result):
        assert "Elasticity" in result.to_table().to_text()

    def test_rfi_also_robust(self):
        result = run_elasticity(
            lambda: RFI(gamma=2), UniformLoad(0.4),
            ElasticityConfig(n_tenants=60, n_updates=80, seed=1))
        assert result.robust_throughout

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ElasticityConfig(n_tenants=0)
        with pytest.raises(ConfigurationError):
            ElasticityConfig(min_factor=0.0)
        with pytest.raises(ConfigurationError):
            ElasticityConfig(min_factor=2.0, max_factor=1.0)


class _OneReplicaMover(OnlinePlacementAlgorithm):
    """Scripted algorithm: tenants live on servers [0, 1]; a resize
    re-homes exactly one of the two replicas (to server 2)."""

    name = "scripted-one-replica-mover"

    def __init__(self):
        super().__init__(gamma=2)
        self.last_new_load = None

    def _place(self, tenant):
        while self.placement.num_servers < 2:
            self.placement.open_server()
        self.placement.place_tenant(tenant, [0, 1])
        return (0, 1)

    def _update_load(self, tenant_id, new_load):
        self.last_new_load = new_load
        self._remove(tenant_id)
        while self.placement.num_servers < 3:
            self.placement.open_server()
        self.placement.place_tenant(Tenant(tenant_id, new_load), [0, 2])
        return (0, 2)


class TestPartialMigrationAccounting:
    """load_migrated counts only replicas that actually moved.

    With gamma=2 homes going [0, 1] -> [0, 2], one replica moved: the
    data-movement cost is one replica's share (new_load / 2), not the
    tenant's whole load (the pre-fix behaviour).
    """

    def test_one_moved_replica_costs_half_the_load(self):
        instances = []

        def factory():
            algo = _OneReplicaMover()
            instances.append(algo)
            return algo

        result = run_elasticity(
            factory, TraceLoads([0.5]),
            ElasticityConfig(n_tenants=1, n_updates=1, seed=0))
        assert result.updates == 1
        assert result.migrations == 1 and result.in_place == 0
        new_load = instances[0].last_new_load
        assert new_load is not None
        assert result.load_migrated == pytest.approx(new_load / 2.0)
        assert result.load_migrated < new_load  # the old bug's value
