"""Unit tests for repro.fleet: shards, router, fleet, rebalancer, soak.

The load-bearing claims, each tested directly:

* routing is deterministic and never depends on live shard state,
* a budget refusal is typed and replays to a no-op on recovery,
* whole-shard crash/recovery restores every acked placement
  replica-for-replica and reconciles the router,
* migrations are audited and torn migrations repair deterministically,
* the soak's result is bit-identical at any ``jobs`` setting.
"""

import json

import pytest

from repro.core.tenant import Tenant
from repro.errors import (ConfigurationError, ShardDownError,
                          ShardSaturatedError)
from repro.fleet import (FLEET_META_NAME, FleetSoakConfig,
                         PlacementFleet, PlacementRouter,
                         ShardController, read_fleet_meta,
                         run_fleet_soak, run_streaming_soak,
                         shard_directory, stable_hash,
                         write_fleet_meta)
from repro.fleet.rebalance import pick_move
from repro.obs import MetricsRegistry


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(42, seed=7) == stable_hash(42, seed=7)

    def test_seed_changes_the_mix(self):
        assert stable_hash(42, seed=0) != stable_hash(42, seed=1)

    def test_spreads_small_ids(self):
        # Sequential tenant ids must not all land on one shard.
        targets = {stable_hash(tid) % 8 for tid in range(64)}
        assert len(targets) >= 6


class TestRouterPolicies:
    def test_hash_is_history_free(self):
        router = PlacementRouter(4, policy="hash", seed=3)
        first = [router.route(Tenant(tid, 0.2)) for tid in range(20)]
        for tid in range(20):
            router.record_place(tid % 4, 0.5)
        second = [router.route(Tenant(tid, 0.2)) for tid in range(20)]
        assert second == first

    def test_least_loaded_tracks_estimates_only(self):
        router = PlacementRouter(3, policy="least-loaded")
        assert router.route(Tenant(1, 0.2)) == 0  # all tied: lowest id
        router.record_place(0, 0.2)
        router.record_place(1, 0.1)
        assert router.route(Tenant(2, 0.2)) == 2
        router.record_place(2, 0.3)
        assert router.route(Tenant(3, 0.2)) == 1

    def test_headroom_prefers_most_budget_left(self):
        router = PlacementRouter(3, policy="headroom", load_budget=4.0)
        router.record_place(0, 3.0)
        router.record_place(1, 1.0)
        router.record_place(2, 2.0)
        assert router.route(Tenant(9, 0.2)) == 1

    def test_headroom_without_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            PlacementRouter(2, policy="headroom")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            PlacementRouter(2, policy="round-robin")

    def test_hash_detours_around_down_shard(self):
        router = PlacementRouter(4, policy="hash", seed=0)
        tenant = Tenant(5, 0.2)
        home = router.route(tenant)
        router.mark_down(home)
        detour = router.route(tenant)
        assert detour == (home + 1) % 4
        router.reconcile(home, 0.0, 0)
        assert router.route(tenant) == home

    def test_all_shards_down_is_loud(self):
        router = PlacementRouter(2)
        router.mark_down(0)
        router.mark_down(1)
        with pytest.raises(ConfigurationError):
            router.route(Tenant(1, 0.1))

    def test_spill_order_is_ring_after_refuser(self):
        router = PlacementRouter(4)
        assert list(router.spill_order(Tenant(1, 0.1), 1)) == [2, 3, 0]
        router.mark_down(3)
        assert list(router.spill_order(Tenant(1, 0.1), 1)) == [2, 0]
        assert router.spilled == 2


class TestRouterBookkeeping:
    def test_record_remove_clamps_at_zero(self):
        router = PlacementRouter(2)
        router.record_place(0, 0.3)
        router.record_remove(0, 0.5)
        assert router.loads[0] == 0.0
        assert router.tenants[0] == 0

    def test_reconcile_replaces_estimate_and_revives(self):
        router = PlacementRouter(2)
        router.record_place(1, 5.0)
        router.mark_down(1)
        router.reconcile(1, 1.25, 3)
        assert router.loads[1] == 1.25
        assert router.tenants[1] == 3
        assert router.down == set()

    def test_snapshot_round_trips_through_json(self):
        router = PlacementRouter(3, policy="least-loaded")
        router.assign(Tenant(1, 0.2))
        snapshot = router.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["routed"] == 1


class TestShardController:
    def test_budget_refusal_is_typed_and_undone(self, tmp_path):
        shard = ShardController(0, tmp_path / "s0", gamma=2,
                                max_servers=2)
        shard.place(Tenant(1, 0.4))
        with pytest.raises(ShardSaturatedError) as exc:
            shard.place(Tenant(2, 0.9))
        assert exc.value.shard_id == 0
        assert not shard.has_tenant(2)
        shard.close()

    def test_refused_attempt_replays_to_noop(self, tmp_path):
        shard = ShardController(0, tmp_path / "s0", gamma=2,
                                max_servers=2)
        acked = shard.place(Tenant(1, 0.4))
        with pytest.raises(ShardSaturatedError):
            shard.place(Tenant(2, 0.9))
        shard.crash()  # no close: recovery must replay the WAL
        recovered = ShardController(0, tmp_path / "s0", max_servers=2)
        assert recovered.has_tenant(1)
        assert not recovered.has_tenant(2)
        by_index = recovered.tenant_servers(1)
        assert tuple(by_index[i] for i in sorted(by_index)) == acked
        assert recovered.audit().ok
        recovered.close()

    def test_warm_start_recovers_geometry(self, tmp_path):
        shard = ShardController(3, tmp_path / "s3", gamma=3)
        shard.place(Tenant(7, 0.25))
        shard.close()
        # Mismatched gamma argument loses to the recorded lineage.
        warm = ShardController(3, tmp_path / "s3", gamma=2)
        assert warm.recovered_state is not None
        assert warm.placement.gamma == 3
        assert warm.has_tenant(7)
        warm.close()

    def test_status_reports_live_values(self, tmp_path):
        shard = ShardController(1, tmp_path / "s1", max_servers=8)
        shard.place(Tenant(1, 0.5))
        status = shard.status()
        assert status["shard"] == 1
        assert status["tenants"] == 1
        assert status["max_servers"] == 8
        assert status["wal_next_seq"] > 0
        shard.close()

    def test_invalid_arguments_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardController(-1, tmp_path / "bad")
        with pytest.raises(ConfigurationError):
            ShardController(0, tmp_path / "bad", max_servers=0)


class TestFleetMeta:
    def test_round_trip(self, tmp_path):
        write_fleet_meta(tmp_path, shards=4, gamma=2, capacity=1.0,
                         policy="hash", seed=0,
                         max_servers_per_shard=None)
        meta = read_fleet_meta(tmp_path)
        assert meta["shards"] == 4
        assert meta["policy"] == "hash"

    def test_meta_rename_is_durable(self, tmp_path, fs_events):
        path = write_fleet_meta(tmp_path, shards=4)
        renamed = fs_events.index(("replace", FLEET_META_NAME))
        assert fs_events.fsync_of(path) in fs_events[:renamed]
        assert fs_events.fsync_of(tmp_path) in fs_events[renamed:]

    def test_new_fleet_directories_are_durable(self, tmp_path,
                                              fs_events):
        root = tmp_path / "f"
        with PlacementFleet(root, shards=2):
            # The root's entry in its parent, then in the root the
            # rename of fleet.json and the entry of each shard
            # directory.
            assert fs_events.count(fs_events.fsync_of(tmp_path)) == 1
            assert fs_events.count(fs_events.fsync_of(root)) == 3

    def test_missing_meta_is_typed(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_fleet_meta(tmp_path)

    def test_corrupt_meta_is_typed(self, tmp_path):
        from repro.errors import StoreCorruptionError
        (tmp_path / FLEET_META_NAME).write_text("not json")
        with pytest.raises(StoreCorruptionError):
            read_fleet_meta(tmp_path)


class TestPlacementFleet:
    def test_place_remove_update_round_trip(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=3) as fleet:
            shard, servers = fleet.place(Tenant(1, 0.3))
            assert servers
            assert fleet.shard_of[1] == shard
            assert fleet.update_load(1, 0.4) == shard
            assert fleet.remove(1) == shard
            assert 1 not in fleet.shard_of

    def test_double_place_rejected(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=2) as fleet:
            fleet.place(Tenant(1, 0.3))
            with pytest.raises(ConfigurationError):
                fleet.place(Tenant(1, 0.3))

    def test_unknown_tenant_rejected(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=2) as fleet:
            with pytest.raises(ConfigurationError):
                fleet.remove(99)

    def test_spillover_places_on_sibling(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=2,
                            policy="hash",
                            max_servers_per_shard=2) as fleet:
            # Saturate one shard with tenants that hash to it, then
            # admit one more: hash routing targets the full shard, the
            # budget refuses, and the router spills it to the sibling.
            homes = [t for t in range(100) if stable_hash(t) % 2 == 0]
            fleet.place(Tenant(homes[0], 0.45))
            fleet.place(Tenant(homes[1], 0.45))
            shard, servers = fleet.place(Tenant(homes[2], 0.3))
            assert shard == 1
            assert servers
            assert fleet.router.spilled == 1
            assert fleet.shard_of[homes[2]] == 1
            assert fleet.all_audits_ok

    def test_fleet_saturation_is_typed(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=2,
                            max_servers_per_shard=2) as fleet:
            fleet.place(Tenant(1, 0.4))
            fleet.place(Tenant(2, 0.4))
            with pytest.raises(ShardSaturatedError):
                fleet.place(Tenant(3, 0.9))
            assert fleet.all_audits_ok

    def test_crash_then_ops_surface_typed(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=2,
                            policy="least-loaded") as fleet:
            shard, _ = fleet.place(Tenant(1, 0.3))
            fleet.crash_shard(shard)
            with pytest.raises(ShardDownError):
                fleet.remove(1)
            with pytest.raises(ShardDownError):
                fleet.update_load(1, 0.2)
            # New tenants route around the hole.
            other, _ = fleet.place(Tenant(2, 0.3))
            assert other != shard

    def test_recover_shard_restores_replica_for_replica(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=2,
                            policy="least-loaded") as fleet:
            acked = {}
            for tid in range(8):
                shard, servers = fleet.place(Tenant(tid, 0.25))
                acked[tid] = (shard, list(servers))
            victim = 0
            fleet.crash_shard(victim)
            controller = fleet.recover_shard(victim)
            for tid, (shard, servers) in acked.items():
                if shard != victim:
                    continue
                by_index = controller.tenant_servers(tid)
                assert [by_index[i]
                        for i in sorted(by_index)] == servers
            assert fleet.router.down == set()
            assert fleet.all_audits_ok

    def test_reconcile_repairs_torn_migration(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=2) as fleet:
            shard, _ = fleet.place(Tenant(1, 0.3))
            other = 1 - shard
            # Simulate a crash between migration steps 2 and 3: the
            # tenant exists on both shards.
            fleet.shards[other].place(Tenant(1, 0.3))
            removed = fleet.reconcile()
            assert removed == [(1, max(shard, other))]
            assert fleet.shard_of[1] == min(shard, other)
            assert fleet.all_audits_ok

    def test_reopen_recorded_geometry_wins(self, tmp_path):
        root = tmp_path / "fleet"
        with PlacementFleet(root, shards=3, gamma=3,
                            policy="least-loaded") as fleet:
            fleet.place(Tenant(1, 0.3))
        with PlacementFleet(root, shards=8, gamma=2,
                            policy="hash") as reopened:
            assert reopened.num_shards == 3
            assert reopened.gamma == 3
            assert reopened.router.policy == "least-loaded"
            assert 1 in reopened.shard_of

    def test_obs_counters_cover_lifecycle(self, tmp_path):
        obs = MetricsRegistry()
        with PlacementFleet(tmp_path / "fleet", shards=2,
                            obs=obs) as fleet:
            shard, _ = fleet.place(Tenant(1, 0.3))
            fleet.crash_shard(shard)
            fleet.recover_shard(shard)
        assert obs.counter("fleet.placed").value == 1
        assert obs.counter("fleet.shard_crashes").value == 1
        assert obs.counter("fleet.shard_recoveries").value == 1


class TestRebalance:
    def test_pick_move_is_deterministic_and_bounded(self):
        loads = {0: 2.0, 1: 0.5}
        tenants = {0: {1: 0.9, 2: 0.5, 3: 0.7}, 1: {4: 0.5}}
        # gap/2 = 0.75: tenant 1 (0.9) overshoots; the largest
        # admissible move is tenant 3 (0.7).
        assert pick_move(loads, tenants) == (0, 1, 3, 0.7)

    def test_pick_move_raises_when_no_move_helps(self):
        with pytest.raises(KeyError):
            pick_move({0: 1.0, 1: 1.0}, {0: {1: 1.0}, 1: {2: 1.0}})
        with pytest.raises(KeyError):
            # Every movable tenant overshoots the midpoint.
            pick_move({0: 1.0, 1: 0.0}, {0: {1: 1.0}, 1: {}})

    def test_rebalance_converges_and_audits(self, tmp_path):
        obs = MetricsRegistry()
        with PlacementFleet(tmp_path / "fleet", shards=2,
                            policy="hash", seed=1, obs=obs) as fleet:
            for tid in range(20):
                fleet.place(Tenant(tid, 0.2))
            before = [c.total_load for c in fleet.shards]
            moves = fleet.rebalance(max_moves=32, tolerance=0.1)
            after = [c.total_load for c in fleet.shards]
            assert max(after) - min(after) <= \
                max(before) - min(before)
            mean = sum(after) / len(after)
            assert (max(after) - min(after) <= 0.1 * mean + 1e-9
                    or len(moves) == 32)
            for move in moves:
                assert fleet.shard_of[move.tenant_id] == move.target
            assert fleet.all_audits_ok
            assert obs.counter("fleet.migrations").value == len(moves)

    def test_balanced_fleet_needs_no_moves(self, tmp_path):
        with PlacementFleet(tmp_path / "fleet", shards=2,
                            policy="least-loaded") as fleet:
            for tid in range(8):
                fleet.place(Tenant(tid, 0.25))
            assert fleet.rebalance() == []


class TestFleetSoak:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetSoakConfig(shards=0)
        with pytest.raises(ConfigurationError):
            FleetSoakConfig(tenants=0)
        with pytest.raises(ConfigurationError):
            FleetSoakConfig(shards=2, crash_shard=2)
        with pytest.raises(ConfigurationError):
            FleetSoakConfig(policy="nope")

    def test_small_soak_is_conformant(self, tmp_path):
        obs = MetricsRegistry()
        result = run_fleet_soak(
            tmp_path / "soak",
            FleetSoakConfig(shards=3, tenants=240), obs=obs)
        assert result.ok
        assert result.placed == 240
        assert result.audits_ok
        crash = result.crash_outcome
        assert crash is not None and crash.shard_id == 0
        assert crash.crash["acked"] > 0
        assert result.crash_divergences == []
        assert result.latency_p99 is not None
        assert result.latency_p99 >= result.latency_p50
        # Every shard left a durable lineage behind.
        for shard in range(3):
            assert (shard_directory(tmp_path / "soak", shard)
                    / "checkpoint.json").exists()

    def test_jobs_do_not_change_the_result(self, tmp_path):
        config = FleetSoakConfig(shards=4, tenants=200,
                                 policy="least-loaded")
        serial = run_fleet_soak(tmp_path / "a", config, jobs=1)
        parallel = run_fleet_soak(tmp_path / "b", config, jobs=2)
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.placed == serial.placed
        assert [o.wal_next_seq for o in parallel.outcomes] == \
            [o.wal_next_seq for o in serial.outcomes]

    def test_budgeted_soak_accounts_for_every_tenant(self, tmp_path):
        result = run_fleet_soak(
            tmp_path / "soak",
            FleetSoakConfig(shards=2, tenants=120, crash_shard=None,
                            max_servers_per_shard=20))
        assert result.ok
        assert (result.placed + result.spill_placed
                + result.spill_unplaced == 120)
        assert result.spill_placed + result.spill_unplaced > 0

    @pytest.mark.parametrize("tenants", [3, 4])
    def test_one_tenant_victim_still_drills(self, tmp_path, tenants):
        # Shard 0 is routed a single tenant, so neither soak reaches
        # its mid-stream trigger; both must drill after the stream.
        config = FleetSoakConfig(shards=2, tenants=tenants)
        for soak in (run_fleet_soak, run_streaming_soak):
            result = soak(tmp_path / soak.__name__, config)
            crash = result.crash_outcome
            assert crash is not None and crash.shard_id == 0
            assert crash.tenants == 1
            assert crash.crash["acked"] == 1
            assert result.crash_divergences == []
            assert result.ok

    def test_soak_without_crash_drill(self, tmp_path):
        result = run_fleet_soak(
            tmp_path / "soak",
            FleetSoakConfig(shards=2, tenants=80, crash_shard=None))
        assert result.ok
        assert result.crash_outcome is None
        assert "crash drill" not in str(result)

    def test_report_renders(self, tmp_path):
        result = run_fleet_soak(
            tmp_path / "soak",
            FleetSoakConfig(shards=2, tenants=100),
            obs=MetricsRegistry())
        text = str(result)
        assert "Fleet soak" in text
        assert "crash drill" in text
        assert "audits: all clean" in text


class TestRouterStream:
    def test_windows_are_bounded_and_cover_the_stream(self):
        router = PlacementRouter(4, policy="hash", batch_size=16)
        tenants = (Tenant(tid, 0.1) for tid in range(100))
        routed = []
        windows = 0
        for groups in router.stream(tenants):
            windows += 1
            window = sum(len(group) for group in groups.values())
            assert 0 < window <= 16
            for shard in groups:
                routed.extend((shard, t.tenant_id)
                              for t in groups[shard])
        assert windows == 7  # six full windows + the 4-tenant tail
        assert sorted(tid for _, tid in routed) == list(range(100))

    def test_stream_matches_assign_in_admission_order(self):
        tenants = [Tenant(tid, 0.05 + (tid % 7) / 10)
                   for tid in range(60)]
        streaming = PlacementRouter(3, policy="least-loaded",
                                    batch_size=8)
        streamed = [(shard, t.tenant_id)
                    for groups in streaming.stream(iter(tenants))
                    for shard, members in groups.items()
                    for t in members]
        assigner = PlacementRouter(3, policy="least-loaded")
        assigned = [(assigner.assign(t), t.tenant_id) for t in tenants]
        for shard in range(3):
            assert [tid for s, tid in streamed if s == shard] == \
                [tid for s, tid in assigned if s == shard]
        assert streaming.snapshot() == assigner.snapshot()

    def test_routing_is_window_size_invariant(self):
        # Each arrival is routed on the estimates alone, so the window
        # length changes when groups are handed over, never what is
        # decided — the invariant that lets the streaming soak pick
        # its window freely.
        tenants = [Tenant(tid, 0.05 + (tid % 9) / 20)
                   for tid in range(90)]

        def assignments(batch_size):
            router = PlacementRouter(3, policy="least-loaded",
                                     batch_size=batch_size)
            return [(t.tenant_id, shard)
                    for groups in router.stream(iter(tenants))
                    for shard in sorted(groups)
                    for t in groups[shard]]

        assert (sorted(assignments(7)) == sorted(assignments(32))
                == sorted(assignments(90)))


class TestStreamingSoak:
    def test_matches_batch_soak_bit_for_bit(self, tmp_path):
        # The streaming soak is the batch soak with bounded memory:
        # same routing, same packings, same per-shard fingerprints,
        # and the same whole-run fingerprint (which folds in the
        # router snapshot) whatever the window — 32 is not the
        # router's default of 64.
        config = FleetSoakConfig(shards=3, tenants=240)
        batch = run_fleet_soak(tmp_path / "batch", config)
        streaming = run_streaming_soak(tmp_path / "stream", config,
                                       window=32)
        assert streaming.ok
        assert [o.fingerprint for o in streaming.outcomes] == \
            [o.fingerprint for o in batch.outcomes]
        assert streaming.fingerprint() == batch.fingerprint()
        assert streaming.placed == batch.placed == 240
        assert streaming.servers == batch.servers

    def test_window_does_not_change_packings(self, tmp_path):
        config = FleetSoakConfig(shards=2, tenants=150,
                                 crash_shard=None)
        a = run_streaming_soak(tmp_path / "a", config, window=7)
        b = run_streaming_soak(tmp_path / "b", config, window=64)
        assert [o.fingerprint for o in a.outcomes] == \
            [o.fingerprint for o in b.outcomes]
        assert a.servers == b.servers

    def test_crash_drill_verifies_by_fingerprint(self, tmp_path):
        result = run_streaming_soak(
            tmp_path / "soak",
            FleetSoakConfig(shards=2, tenants=160), window=16)
        assert result.ok
        crash = result.crash_outcome
        assert crash is not None and crash.shard_id == 0
        assert crash.crash["acked"] > 0
        assert crash.crash["audit_ok"]
        assert result.crash_divergences == []

    def test_budgeted_streaming_accounts_for_every_tenant(self, tmp_path):
        result = run_streaming_soak(
            tmp_path / "soak",
            FleetSoakConfig(shards=2, tenants=120, crash_shard=None,
                            max_servers_per_shard=20),
            window=16)
        assert result.ok
        assert (result.placed + result.spill_placed
                + result.spill_unplaced == 120)
        assert result.spill_placed + result.spill_unplaced > 0

    def test_window_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_streaming_soak(tmp_path / "soak", window=0)

    def test_report_renders_with_latency(self, tmp_path):
        result = run_streaming_soak(
            tmp_path / "soak",
            FleetSoakConfig(shards=2, tenants=100),
            obs=MetricsRegistry(), window=32)
        assert result.latency_p99 is not None
        assert result.latency_p99 >= result.latency_p50
        text = str(result)
        assert "Fleet soak" in text
        assert "crash drill" in text
        assert "audits: all clean" in text
