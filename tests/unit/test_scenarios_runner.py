"""Unit tests for scale profiles and the consolidation runner."""

import pytest

from repro.core.cubefit import CubeFit
from repro.algorithms.rfi import RFI
from repro.sim.runner import compare, run_once
from repro.sim.scenarios import (DEFAULT_SCALE, FULL_SCALE, FULL_SCALE_ENV,
                                 current_scale, figure6_distributions,
                                 table1_distributions)
from repro.workloads.distributions import UniformLoad
from repro.workloads.sequences import generate_sequence
from repro.errors import ConfigurationError


class TestScaleProfiles:
    def test_default_profile(self, monkeypatch):
        monkeypatch.delenv(FULL_SCALE_ENV, raising=False)
        assert current_scale() is DEFAULT_SCALE

    def test_full_scale_env(self, monkeypatch):
        monkeypatch.setenv(FULL_SCALE_ENV, "1")
        assert current_scale() is FULL_SCALE

    def test_full_scale_matches_paper(self):
        assert FULL_SCALE.sim_tenants == 50_000
        assert FULL_SCALE.sim_runs == 10
        assert FULL_SCALE.cluster_servers == 69
        assert FULL_SCALE.cluster_warmup == 300.0
        assert FULL_SCALE.cluster_measure == 300.0

    def test_tenant_scale(self):
        assert FULL_SCALE.tenant_scale == pytest.approx(1.0)

    def test_figure6_distributions(self):
        dists = figure6_distributions()
        names = [d.name for d in dists]
        assert "uniform(0,0.2]" in names
        assert "uniform(0,1]" in names
        assert any("zipf(3" in n for n in names)
        assert len(dists) == 8

    def test_table1_distributions(self):
        dists = table1_distributions()
        assert set(dists) == {"Uniform", "Zipfian"}


class TestRunOnce:
    def test_captures_stats(self):
        seq = generate_sequence(UniformLoad(0.4), 100, seed=0)
        stats = run_once(lambda: CubeFit(gamma=2, num_classes=10), seq,
                         verify=True)
        assert stats.algorithm == "cubefit"
        assert stats.servers > 0
        assert stats.robust
        assert stats.tenants == 100
        assert 0.0 < stats.utilization <= 1.0
        assert stats.placement_seconds >= 0.0


class TestCompare:
    def make(self, runs=2, n=150):
        factories = {
            "cubefit": lambda: CubeFit(gamma=2, num_classes=10),
            "rfi": lambda: RFI(gamma=2),
        }
        return compare(factories, UniformLoad(0.3), n_tenants=n,
                       runs=runs, base_seed=0)

    def test_paired_runs(self):
        result = self.make()
        assert result.runs == 2
        assert len(result.servers["cubefit"]) == 2
        assert len(result.servers["rfi"]) == 2

    def test_savings_metric(self):
        result = self.make()
        savings = result.savings_percent("rfi", "cubefit")
        manual = (result.mean_servers("rfi")
                  - result.mean_servers("cubefit")) \
            / result.mean_servers("cubefit") * 100
        assert savings == pytest.approx(manual)

    def test_savings_ci(self):
        result = self.make(runs=3)
        ci = result.savings_percent_ci("rfi", "cubefit")
        assert ci.n == 3
        assert ci.half_width >= 0

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            compare({}, UniformLoad(0.3), 10, 1)
        with pytest.raises(ConfigurationError):
            compare({"x": lambda: CubeFit(gamma=2)}, UniformLoad(0.3),
                    10, 0)
