"""Unit tests for repro.core.placement (shared-load accounting)."""

import pytest

from repro.core.placement import PlacementState
from repro.core.tenant import Tenant, Replica
from repro.errors import ConfigurationError, PlacementError
from tests.oracles import (exact_failover_load, failover_load,
                           naive_shared_partners, naive_worst_failover_load)

pytestmark = pytest.mark.usefixtures("checked_index")


def fresh(gamma=2, servers=0):
    ps = PlacementState(gamma=gamma)
    for _ in range(servers):
        ps.open_server()
    return ps


class TestConstruction:
    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            PlacementState(gamma=0)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            PlacementState(gamma=2, capacity=0.0)

    def test_server_ids_sequential(self):
        ps = fresh(servers=3)
        assert ps.server_ids == [0, 1, 2]
        assert ps.num_servers == 3


class TestPlaceUnplace:
    def test_place_tenant_updates_shared(self):
        ps = fresh(gamma=2, servers=2)
        ps.place_tenant(Tenant(0, 0.6), [0, 1])
        assert ps.shared_load(0, 1) == pytest.approx(0.3)
        assert ps.shared_load(1, 0) == pytest.approx(0.3)
        assert ps.server(0).load == pytest.approx(0.3)

    def test_shared_accumulates_over_tenants(self):
        ps = fresh(gamma=2, servers=2)
        ps.place_tenant(Tenant(0, 0.4), [0, 1])
        ps.place_tenant(Tenant(1, 0.2), [0, 1])
        assert ps.shared_load(0, 1) == pytest.approx(0.3)

    def test_unplace_restores_shared(self):
        ps = fresh(gamma=2, servers=2)
        ps.place_tenant(Tenant(0, 0.6), [0, 1])
        ps.remove_tenant(0)
        assert ps.shared_load(0, 1) == 0.0
        assert ps.server(0).load == pytest.approx(0.0)
        assert ps.num_tenants == 0

    def test_place_requires_distinct_servers(self):
        ps = fresh(gamma=2, servers=2)
        with pytest.raises(PlacementError):
            ps.place_tenant(Tenant(0, 0.5), [0, 0])

    def test_place_requires_gamma_servers(self):
        ps = fresh(gamma=3, servers=3)
        with pytest.raises(PlacementError):
            ps.place_tenant(Tenant(0, 0.5), [0, 1])

    def test_atomic_rollback_on_failure(self):
        from repro.errors import CapacityError
        ps = fresh(gamma=2, servers=3)
        ps.place_tenant(Tenant(0, 0.9), [0, 1])   # 0.45 on each
        ps.place_tenant(Tenant(1, 0.9), [1, 2])   # server 1 now at 0.90
        # Tenant 2's first replica (0.5) fits on server 0 (free 0.55) but
        # the second cannot fit on server 1 (free 0.10): the whole
        # placement must roll back, leaving server 0 untouched.
        with pytest.raises(CapacityError):
            ps.place_tenant(Tenant(2, 1.0), [0, 1])
        assert ps.tenant_load(2) == 0.0
        assert ps.server(0).load == pytest.approx(0.45)
        assert ps.shared_load(0, 1) == pytest.approx(0.45)

    def test_duplicate_replica_placement_rejected(self):
        ps = fresh(gamma=2, servers=2)
        ps.place(Replica(0, 0, 0.2), 0)
        with pytest.raises(PlacementError):
            ps.place(Replica(0, 0, 0.2), 1)

    def test_unplace_unknown_tenant(self):
        ps = fresh(gamma=2, servers=1)
        with pytest.raises(PlacementError):
            ps.remove_tenant(42)


class TestQueries:
    def test_tenant_servers_mapping(self):
        ps = fresh(gamma=3, servers=3)
        ps.place_tenant(Tenant(5, 0.3), [2, 0, 1])
        assert ps.tenant_servers(5) == {0: 2, 1: 0, 2: 1}

    def test_worst_failover_is_top_k_shared(self):
        ps = fresh(gamma=3, servers=5)
        # Tenant a on (0,1,2); tenant b on (0,3,4): server 0 shares 0.1
        # with each of 1,2 (a) and 0.2 with each of 3,4 (b).
        ps.place_tenant(Tenant(0, 0.3), [0, 1, 2])
        ps.place_tenant(Tenant(1, 0.6), [0, 3, 4])
        # gamma-1 = 2 worst partners of server 0: 3 and 4 (0.2 each)
        assert ps.worst_failover_load(0) == pytest.approx(0.4)
        assert ps.worst_failover_load(0, failures=1) == pytest.approx(0.2)
        assert ps.worst_failover_load(0, failures=0) == 0.0

    def test_slack_and_is_robust(self):
        ps = fresh(gamma=2, servers=2)
        ps.place_tenant(Tenant(0, 0.8), [0, 1])
        # load 0.4, worst failover 0.4 -> slack 0.2
        server = ps.server(0)
        slack = server.capacity - server.load - ps.worst_failover_load(0)
        assert slack == pytest.approx(0.2)

    def test_failover_specific_set_conservative(self):
        ps = fresh(gamma=3, servers=4)
        ps.place_tenant(Tenant(0, 0.6), [0, 1, 2])
        assert failover_load(ps, 0, [1]) == pytest.approx(0.2)
        assert failover_load(ps, 0, [1, 2]) == pytest.approx(0.4)
        assert failover_load(ps, 0, [3]) == 0.0

    def test_exact_failover_splits_between_survivors(self):
        ps = fresh(gamma=3, servers=4)
        ps.place_tenant(Tenant(0, 0.6), [0, 1, 2])
        # one failure: tenant re-shares over 2 survivors: 0.3 each,
        # extra on server 0 = 0.3 - 0.2 = 0.1 (< conservative 0.2)
        assert exact_failover_load(ps, 0, [1]) == pytest.approx(0.1)
        # both partners fail: server 0 takes everything: extra 0.4
        assert exact_failover_load(ps, 0, [1, 2]) == pytest.approx(0.4)

    def test_exact_never_exceeds_conservative(self):
        ps = fresh(gamma=3, servers=5)
        ps.place_tenant(Tenant(0, 0.3), [0, 1, 2])
        ps.place_tenant(Tenant(1, 0.6), [0, 3, 4])
        for failed in ([1], [3], [1, 3], [2, 4], [3, 4]):
            assert exact_failover_load(ps, 0, failed) <= \
                failover_load(ps, 0, failed) + 1e-12

    def test_utilization_counts_only_nonempty(self):
        ps = fresh(gamma=2, servers=3)
        ps.place_tenant(Tenant(0, 0.8), [0, 1])
        assert ps.utilization() == pytest.approx(0.4)

    def test_total_load(self):
        ps = fresh(gamma=2, servers=2)
        ps.place_tenant(Tenant(0, 0.5), [0, 1])
        assert ps.total_load() == pytest.approx(0.5)

    def test_snapshot(self):
        ps = fresh(gamma=2, servers=2)
        ps.place_tenant(Tenant(3, 0.5), [0, 1])
        snap = ps.snapshot()
        assert snap[0] == [(3, 0)]
        assert snap[1] == [(3, 1)]

    def test_num_nonempty_servers(self):
        ps = fresh(gamma=2, servers=4)
        ps.place_tenant(Tenant(0, 0.5), [0, 2])
        assert ps.num_nonempty_servers == 2
        assert ps.num_servers == 4


class TestSlackIndex:
    """Incremental worst-failover cache and the dirty-tracker API."""

    def test_cache_hit_returns_same_value(self):
        ps = fresh(gamma=2, servers=3)
        ps.place_tenant(Tenant(0, 0.6), [0, 1])
        first = ps.worst_failover_load(0)
        assert ps.worst_failover_load(0) == first
        assert ps._wfl_cache[0][1] == first

    def test_mutation_invalidates_target_and_siblings(self):
        ps = fresh(gamma=2, servers=3)
        ps.place_tenant(Tenant(0, 0.6), [0, 1])
        assert ps.worst_failover_load(1) == pytest.approx(0.3)
        # A bigger shared partner must displace the cached top-1 value
        # on server 1 (a sibling of the mutated server 2).
        ps.place_tenant(Tenant(1, 0.8), [1, 2])
        after = ps.worst_failover_load(1)
        assert after == pytest.approx(0.4)
        assert after == pytest.approx(naive_worst_failover_load(ps, 1))

    def test_dirty_tracker_reports_affected_servers(self):
        ps = fresh(gamma=2, servers=4)
        tracker = ps.dirty_tracker()
        assert tracker.drain() == {0, 1, 2, 3}
        ps.place_tenant(Tenant(0, 0.6), [0, 2])
        assert tracker.drain() == {0, 2}
        ps.place_tenant(Tenant(1, 0.4), [2, 3])
        ps.remove_tenant(0)
        assert tracker.drain() == {0, 2, 3}
        assert tracker.drain() == set()

    def test_tracker_peek_and_mark(self):
        """A mutation marks the server dirty, and it stays marked until
        drained."""
        ps = fresh(gamma=2, servers=2)
        tracker = ps.dirty_tracker()
        tracker.drain()
        ps.open_server()
        assert tracker._dirty == {2}
        assert tracker.drain() == {2}

    def test_closed_tracker_stops_accumulating(self):
        ps = fresh(gamma=2, servers=2)
        tracker = ps.dirty_tracker()
        tracker.drain()
        tracker.close()
        ps.place_tenant(Tenant(0, 0.4), [0, 1])
        assert tracker._dirty == set()

    def test_open_server_marks_new_server_dirty(self):
        ps = fresh(gamma=2, servers=0)
        tracker = ps.dirty_tracker()
        server = ps.open_server()
        assert server.server_id in tracker.drain()

    def test_naive_shared_partners_matches_index(self):
        ps = fresh(gamma=3, servers=5)
        ps.place_tenant(Tenant(0, 0.3), [0, 1, 2])
        ps.place_tenant(Tenant(1, 0.6), [0, 3, 4])
        for sid in ps.server_ids:
            naive = naive_shared_partners(ps, sid)
            assert naive == pytest.approx(ps.shared_partners(sid))
