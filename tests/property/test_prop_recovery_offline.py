"""Property-based tests for recovery, offline solvers, and churn."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms.offline import OfflineFirstFitDecreasing
from repro.analysis.optimum import branch_and_bound_optimum
from repro.core.cubefit import CubeFit
from repro.core.recovery import RecoveryPlanner
from repro.core.tenant import Tenant, make_tenants
from repro.core.validation import audit

small_loads = st.lists(
    st.floats(min_value=0.05, max_value=0.95,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6)


@given(loads=small_loads)
@settings(max_examples=25, deadline=None)
def test_optimum_never_above_ffd(loads):
    """The exact optimum lower-bounds every heuristic."""
    opt = branch_and_bound_optimum(loads, 2).optimum()
    ffd = OfflineFirstFitDecreasing(gamma=2)
    ffd.consolidate(make_tenants(loads))
    assert opt <= ffd.placement.num_servers
    assert audit(ffd.placement).ok


@given(loads=small_loads)
@settings(max_examples=15, deadline=None)
def test_optimum_packing_budget_monotone(loads):
    """A larger failure budget can never need fewer servers."""
    relaxed = branch_and_bound_optimum(loads, 2, failures=0).optimum()
    robust = branch_and_bound_optimum(loads, 2, failures=1).optimum()
    assert relaxed <= robust


@given(loads=st.lists(st.floats(min_value=0.02, max_value=0.8),
                      min_size=5, max_size=40),
       n_failures=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=10))
@settings(max_examples=25, deadline=None)
def test_recovery_restores_invariants(loads, n_failures, seed):
    """After failing any servers and re-replicating: the audit passes,
    every tenant is back at gamma replicas, and nothing lives on the
    failed servers."""
    algo = CubeFit(gamma=2, num_classes=5)
    algo.consolidate(make_tenants(loads))
    placement = algo.placement
    nonempty = [s.server_id for s in placement if len(s) > 0]
    rng = np.random.default_rng(seed)
    count = min(n_failures, len(nonempty))
    victims = [int(v) for v in
               rng.choice(nonempty, size=count, replace=False)]
    RecoveryPlanner(placement).recover(victims)
    assert audit(placement).ok
    for tid in placement.tenant_ids:
        homes = placement.tenant_servers(tid)
        assert len(homes) == 2
        assert not set(homes.values()) & set(victims)


churn_ops = st.lists(
    st.tuples(st.booleans(),
              st.floats(min_value=0.02, max_value=1.0)),
    min_size=1, max_size=60)


@given(ops=churn_ops, gamma=st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_cubefit_robust_under_arbitrary_churn(ops, gamma):
    """Interleaved arrivals/departures (with slot recycling) never
    break Theorem 1."""
    algo = CubeFit(gamma=gamma, num_classes=5)
    alive = []
    next_id = 0
    for is_departure, load in ops:
        if is_departure and alive:
            algo.remove(alive.pop(0))
        else:
            algo.place(Tenant(next_id, load))
            alive.append(next_id)
            next_id += 1
    assert audit(algo.placement).ok
    assert algo.placement.num_tenants == len(alive)
