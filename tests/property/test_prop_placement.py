"""Property-based tests of the shared-load index's consistency."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import PlacementState
from repro.core.tenant import Tenant

pytestmark = pytest.mark.usefixtures("checked_index")


def recompute_shared(ps, a, b):
    """Reference implementation: |S_a ∩ S_b| from first principles."""
    total = 0.0
    server = ps.server(a)
    for (tenant_id, _idx), replica in server.replicas.items():
        homes = set(ps.tenant_servers(tenant_id).values())
        if b in homes:
            total += replica.load
    return total


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["place", "remove"]),
        st.integers(min_value=0, max_value=11),   # tenant id
        st.floats(min_value=0.02, max_value=0.3),
        st.permutations(range(5)),
    ),
    min_size=1, max_size=30)


@given(ops=ops_strategy, gamma=st.sampled_from([2, 3]))
@settings(max_examples=50, deadline=None)
def test_shared_index_matches_reference(ops, gamma):
    """After arbitrary interleavings of tenant placements and removals,
    the incremental shared-load index equals a from-scratch recount."""
    ps = PlacementState(gamma=gamma)
    for _ in range(5):
        ps.open_server()
    for op, tid, load, perm in ops:
        if op == "place":
            if ps.tenant_servers(tid):
                continue  # already placed
            try:
                ps.place_tenant(Tenant(tid, load), list(perm[:gamma]))
            except Exception:
                continue  # capacity exceeded; fine
        else:
            if ps.tenant_servers(tid):
                ps.remove_tenant(tid)
    for a, b in itertools.permutations(ps.server_ids, 2):
        assert abs(ps.shared_load(a, b)
                   - recompute_shared(ps, a, b)) < 1e-9


@given(ops=ops_strategy)
@settings(max_examples=30, deadline=None)
def test_loads_never_negative_and_symmetric(ops):
    ps = PlacementState(gamma=2)
    for _ in range(5):
        ps.open_server()
    for op, tid, load, perm in ops:
        if op == "place" and not ps.tenant_servers(tid):
            try:
                ps.place_tenant(Tenant(tid, load), list(perm[:2]))
            except Exception:
                continue
        elif op == "remove" and ps.tenant_servers(tid):
            ps.remove_tenant(tid)
    for server in ps:
        assert server.load >= -1e-12
    for a, b in itertools.combinations(ps.server_ids, 2):
        assert abs(ps.shared_load(a, b) - ps.shared_load(b, a)) < 1e-12
