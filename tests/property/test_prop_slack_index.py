"""Property tests for the incremental slack index.

The index memoizes each server's worst-case failover load and
invalidates only the servers a mutation affects.  The property: under
*any* interleaving of ``place``, ``unplace``, ``place_tenant`` and
``remove_tenant``, every cached value equals a from-scratch
recomputation from the raw replica sets (:mod:`tests.oracles`).  The
``checked_index`` fixture is active throughout, so every read is
additionally cross-checked against the rebuild and any divergence
fails.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import PlacementState
from repro.core.tenant import Tenant
from repro.errors import CapacityError, PlacementError
from tests.oracles import naive_slack, naive_worst_failover_load

pytestmark = pytest.mark.usefixtures("checked_index")

MAX_SERVERS = 8


def cached_slack(ps, sid):
    """Slack at the full budget, through the cached index."""
    server = ps.server(sid)
    return server.capacity - server.load - ps.worst_failover_load(sid)


def assert_index_matches_naive(ps):
    """Every cached slack quantity equals naive recomputation."""
    budgets = sorted({1, ps.gamma - 1, ps.gamma})
    for sid in ps.server_ids:
        for f in budgets:
            cached = ps.worst_failover_load(sid, f)
            naive = naive_worst_failover_load(ps, sid, f)
            assert cached == pytest.approx(naive, abs=1e-9), (
                f"server {sid} failures={f}: cached {cached} "
                f"vs naive {naive}")
        assert cached_slack(ps, sid) == pytest.approx(
            naive_slack(ps, sid), abs=1e-9)


@given(gamma=st.integers(2, 4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_cached_slack_matches_naive_under_interleavings(gamma, data):
    ps = PlacementState(gamma=gamma)
    for _ in range(gamma + 1):
        ps.open_server()
    next_tid = 0
    n_ops = data.draw(st.integers(min_value=5, max_value=30),
                      label="n_ops")
    for step in range(n_ops):
        op = data.draw(st.sampled_from(
            ["place_tenant", "remove_tenant", "place", "unplace",
             "open_server"]), label=f"op[{step}]")
        if op == "open_server" and ps.num_servers < MAX_SERVERS:
            ps.open_server()
        elif op == "place_tenant":
            load = data.draw(st.floats(min_value=0.01, max_value=0.9),
                             label="load")
            perm = data.draw(st.permutations(ps.server_ids),
                             label="targets")
            try:
                ps.place_tenant(Tenant(next_tid, load), perm[:gamma])
            except CapacityError:
                continue
            next_tid += 1
        elif op == "place":
            # Place a *single* replica of a fresh tenant (partially
            # placed tenants are the hard case for sibling
            # invalidation as later siblings join one by one).
            load = data.draw(st.floats(min_value=0.01, max_value=0.9),
                             label="load")
            tenant = Tenant(next_tid, load)
            replicas = tenant.replicas(gamma)
            count = data.draw(st.integers(1, gamma), label="count")
            perm = data.draw(st.permutations(ps.server_ids),
                             label="targets")
            try:
                for replica, sid in zip(replicas[:count], perm):
                    ps.place(replica, sid)
            except CapacityError:
                pass
            next_tid += 1
        elif op == "remove_tenant" and ps.tenant_ids:
            victim = data.draw(st.sampled_from(ps.tenant_ids),
                               label="victim")
            ps.remove_tenant(victim)
        elif op == "unplace" and ps.tenant_ids:
            tid = data.draw(st.sampled_from(ps.tenant_ids),
                            label="tenant")
            homes = ps.tenant_servers(tid)
            index = data.draw(st.sampled_from(sorted(homes)),
                              label="replica")
            ps.unplace((tid, index), homes[index])
        assert_index_matches_naive(ps)


@given(gamma=st.integers(2, 4), data=st.data())
@settings(max_examples=25, deadline=None)
def test_dirty_tracker_covers_every_affected_server(gamma, data):
    """Draining the tracker and re-checking only those servers is
    enough: servers never reported dirty keep their previous slack."""
    ps = PlacementState(gamma=gamma)
    for _ in range(gamma + 2):
        ps.open_server()
    tracker = ps.dirty_tracker()
    tracker.drain()
    known = {sid: cached_slack(ps, sid) for sid in ps.server_ids}
    next_tid = 0
    for step in range(data.draw(st.integers(3, 15), label="n_ops")):
        op = data.draw(st.sampled_from(["place_tenant", "remove_tenant"]),
                       label=f"op[{step}]")
        if op == "place_tenant":
            load = data.draw(st.floats(min_value=0.01, max_value=0.6),
                             label="load")
            perm = data.draw(st.permutations(ps.server_ids),
                             label="targets")
            try:
                ps.place_tenant(Tenant(next_tid, load), perm[:gamma])
            except CapacityError:
                continue
            next_tid += 1
        elif ps.tenant_ids:
            victim = data.draw(st.sampled_from(ps.tenant_ids),
                               label="victim")
            ps.remove_tenant(victim)
        for sid in tracker.drain():
            known[sid] = cached_slack(ps, sid)
        # If invalidation missed a server, its stale entry in `known`
        # would now disagree with ground truth.
        for sid in ps.server_ids:
            assert known[sid] == pytest.approx(naive_slack(ps, sid),
                                               abs=1e-9), (
                f"server {sid} stale after op {step}: tracker never "
                f"reported it dirty")


class TestIndexOracleFalsifiability:
    """The ``checked_index`` oracle must actually catch a corrupted
    index."""

    def test_corrupted_shared_index_raises(self):
        ps = PlacementState(gamma=2)
        for _ in range(3):
            ps.open_server()
        ps.place_tenant(Tenant(0, 0.6), [0, 1])
        ps.worst_failover_load(0)  # consistent: no divergence
        ps._shared[0][1] += 0.25  # simulate a missed invalidation
        ps._wfl_cache.pop(0, None)
        with pytest.raises(AssertionError, match="divergence"):
            ps.worst_failover_load(0)

    def test_corrupted_cache_entry_raises(self):
        ps = PlacementState(gamma=2)
        for _ in range(3):
            ps.open_server()
        ps.place_tenant(Tenant(0, 0.6), [0, 1])
        ps.worst_failover_load(0)
        ps._wfl_cache[0][1] = 0.999  # stale value survives a mutation
        with pytest.raises(AssertionError, match="divergence"):
            ps.worst_failover_load(0)

    def test_unplace_rollback_keeps_index_consistent(self):
        ps = PlacementState(gamma=3)
        for _ in range(4):
            ps.open_server()
        ps.place_tenant(Tenant(0, 0.9), [0, 1, 2])
        with pytest.raises(PlacementError):
            # Duplicate target triggers the atomic rollback path.
            ps.place_tenant(Tenant(1, 0.3), [0, 1, 1])
        assert_index_matches_naive(ps)
