"""Property-based tests of CUBEFIT's invariants (Theorem 1)."""

from hypothesis import given, settings, strategies as st

from repro.core.cubefit import CubeFit
from repro.core.tenant import make_tenants
from repro.core.validation import audit
from repro.algorithms.lower_bound import capacity_lower_bound

loads_strategy = st.lists(
    st.floats(min_value=0.001, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60)


@given(loads=loads_strategy,
       gamma=st.sampled_from([2, 3]),
       num_classes=st.sampled_from([2, 3, 5, 10]))
@settings(max_examples=60, deadline=None)
def test_packing_is_always_robust(loads, gamma, num_classes):
    """For every load sequence, the resulting packing survives any
    gamma-1 simultaneous failures (the paper's Theorem 1)."""
    algo = CubeFit(gamma=gamma, num_classes=num_classes)
    algo.consolidate(make_tenants(loads))
    report = audit(algo.placement)
    assert report.ok, str(report)


@given(loads=loads_strategy, gamma=st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_every_tenant_on_gamma_distinct_servers(loads, gamma):
    algo = CubeFit(gamma=gamma, num_classes=5)
    algo.consolidate(make_tenants(loads))
    for tid in range(len(loads)):
        homes = algo.placement.tenant_servers(tid)
        assert len(homes) == gamma
        assert len(set(homes.values())) == gamma


@given(loads=loads_strategy)
@settings(max_examples=40, deadline=None)
def test_server_count_at_least_capacity_bound(loads):
    algo = CubeFit(gamma=2, num_classes=10)
    algo.consolidate(make_tenants(loads))
    assert algo.placement.num_servers >= capacity_lower_bound(loads)


@given(loads=loads_strategy)
@settings(max_examples=30, deadline=None)
def test_no_server_exceeds_unit_capacity(loads):
    algo = CubeFit(gamma=3, num_classes=5)
    algo.consolidate(make_tenants(loads))
    for server in algo.placement:
        assert server.load <= 1.0 + 1e-9


@given(loads=loads_strategy, first_stage=st.booleans())
@settings(max_examples=30, deadline=None)
def test_robust_under_all_stage_configurations(loads, first_stage):
    algo = CubeFit(gamma=2, num_classes=5, first_stage=first_stage)
    algo.consolidate(make_tenants(loads))
    assert audit(algo.placement).ok


@given(loads=loads_strategy)
@settings(max_examples=20, deadline=None)
def test_total_placed_load_preserved(loads):
    """Consolidation neither loses nor duplicates load."""
    algo = CubeFit(gamma=2, num_classes=10)
    algo.consolidate(make_tenants(loads))
    assert abs(algo.placement.total_load() - sum(loads)) < 1e-6 \
        + 1e-9 * len(loads)
