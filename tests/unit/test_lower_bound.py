"""Unit tests for the OPT lower bounds."""

import numpy as np

from repro.algorithms.lower_bound import (best_lower_bound,
                                          capacity_lower_bound,
                                          weight_lower_bound)
from repro.core.cubefit import CubeFit
from repro.core.tenant import make_tenants


class TestCapacityBound:
    def test_simple_sum(self):
        assert capacity_lower_bound([0.5, 0.6]) == 2

    def test_exact_integer_total(self):
        assert capacity_lower_bound([0.5, 0.5]) == 1

    def test_empty(self):
        assert capacity_lower_bound([]) == 0


class TestWeightBound:
    def test_empty(self):
        assert weight_lower_bound([], 2, 10) == 0

    def test_beats_capacity_on_large_replicas(self):
        """Tenants of load 1 (replicas 1/2, weight 1 each, W = 2n);
        with r < 2 the weight bound exceeds the capacity bound n."""
        loads = [1.0] * 30
        cap = capacity_lower_bound(loads)
        weight = weight_lower_bound(loads, 2, 91)
        assert weight > cap

    def test_cubefit_respects_bound(self):
        rng = np.random.default_rng(61)
        loads = list(rng.uniform(0.01, 1.0, 150))
        algo = CubeFit(gamma=2, num_classes=10)
        algo.consolidate(make_tenants(loads))
        lb = best_lower_bound(loads, 2, 10)
        assert algo.placement.num_servers >= lb

    def test_best_lower_bound_is_max(self):
        loads = [1.0] * 30
        assert best_lower_bound(loads, 2, 91) == max(
            capacity_lower_bound(loads),
            weight_lower_bound(loads, 2, 91))


class TestNearOptimality:
    def test_cubefit_near_optimal_large_n(self):
        """The paper's claim: near-optimal allocation when the number of
        tenants is large.  CubeFit must come within its competitive
        ratio of the weight lower bound."""
        rng = np.random.default_rng(67)
        loads = list(rng.uniform(0.01, 0.4, 2000))
        algo = CubeFit(gamma=2, num_classes=10)
        algo.consolidate(make_tenants(loads))
        lb = best_lower_bound(loads, 2, 10)
        # Theorem 2's ratio for K=10 (last-class weights) is < 1.8.
        assert algo.placement.num_servers <= 1.8 * lb + 50
