"""Property-based differentials for the sharded fleet.

Two claims, each drawn over random workloads:

1. **A 1-shard fleet is the single controller.**  Driving the same
   operation stream through ``PlacementFleet(shards=1)`` and through a
   plain ``RobustBestFit`` + ``DurableStore`` produces bit-identical
   packings, WAL bytes, checkpoint payloads, and placement-level obs
   metrics.  Sharding must be a pure partitioning layer — zero
   behavioural drift at N=1.
2. **Routing is deterministic.**  Under a fixed seed the router maps
   an admission stream to the same shards on every run, for every
   policy and shard count; hash routing is additionally invariant to
   the streaming window size.
"""

from hypothesis import given, settings, strategies as st

from repro.algorithms.naive import RobustBestFit
from repro.core.tenant import Tenant
from repro.fleet import PlacementFleet, PlacementRouter
from repro.obs import MetricsRegistry
from repro.store import DurableStore
from repro.store.wal import FSYNC_NEVER

loads = st.floats(min_value=0.01, max_value=0.9,
                  allow_nan=False).map(lambda x: round(x, 3))

#: (op, load) streams: place every tenant, then a random tail of
#: removes / resizes addressed by tenant index.
operations = st.lists(
    st.tuples(st.sampled_from(["place", "remove", "update"]), loads),
    min_size=1, max_size=25)


def _routed(router, tenants):
    """``(shard, tenant id)`` pairs in the order ``stream`` yields."""
    return [(shard, t.tenant_id)
            for groups in router.stream(tenants)
            for shard, members in groups.items() for t in members]


def _wal_bytes(directory):
    return b"".join(path.read_bytes()
                    for path in sorted((directory / "wal").glob("*")))


def _placement_fingerprint(placement):
    return {tid: placement.tenant_servers(tid)
            for tid in placement.tenant_ids}


def _comparable(registry):
    """Obs snapshot with wall-clock noise stripped: histogram counts
    stay (same operations -> same counts), durations do not."""
    snapshot = {}
    for name, data in registry.snapshot().items():
        if data.get("type") == "histogram":
            snapshot[name] = {"count": data["count"]}
        else:
            snapshot[name] = data
    return snapshot


def _drive(ops, gamma, segment_records, place, remove, update):
    alive = {}
    next_id = 0
    for op, load in ops:
        if op == "place" or not alive:
            place(Tenant(next_id, load))
            alive[next_id] = load
            next_id += 1
        elif op == "remove":
            tid = sorted(alive)[len(alive) // 2]
            remove(tid)
            del alive[tid]
        else:
            tid = sorted(alive)[len(alive) // 3]
            update(tid, load)
            alive[tid] = load


@given(ops=operations, gamma=st.integers(min_value=2, max_value=4),
       segment_records=st.integers(min_value=2, max_value=64))
@settings(max_examples=30, deadline=None)
def test_one_shard_fleet_is_the_single_controller(
        tmp_path_factory, ops, gamma, segment_records):
    base = tmp_path_factory.mktemp("differential")

    fleet_obs = MetricsRegistry()
    fleet = PlacementFleet(base / "fleet", shards=1, gamma=gamma,
                           obs=fleet_obs, fsync=FSYNC_NEVER,
                           segment_records=segment_records)
    _drive(ops, gamma, segment_records,
           place=fleet.place,
           remove=fleet.remove,
           update=fleet.update_load)
    fleet.checkpoint_all()
    fleet_placement = fleet.shards[0].placement
    fleet_fingerprint = _placement_fingerprint(fleet_placement)
    fleet.close()

    plain_obs = MetricsRegistry()
    store = DurableStore(base / "plain", fsync=FSYNC_NEVER,
                         segment_records=segment_records,
                         obs=plain_obs)
    algorithm = RobustBestFit(gamma=gamma)
    algorithm.attach_obs(plain_obs)
    algorithm.attach_store(store)
    _drive(ops, gamma, segment_records,
           place=algorithm.place,
           remove=algorithm.remove,
           update=algorithm.update_load)
    store.checkpoint_and_compact(algorithm.placement)
    plain_fingerprint = _placement_fingerprint(algorithm.placement)
    store.close()

    assert fleet_fingerprint == plain_fingerprint
    assert _wal_bytes(base / "fleet" / "shard-000") == \
        _wal_bytes(base / "plain")
    assert (base / "fleet" / "shard-000" /
            "checkpoint.json").read_bytes() == \
        (base / "plain" / "checkpoint.json").read_bytes()
    # The fleet layer adds fleet.* metrics on top; everything the
    # placement and store layers record must match exactly.
    fleet_metrics = {k: v for k, v in _comparable(fleet_obs).items()
                     if not k.startswith("fleet.")}
    assert fleet_metrics == _comparable(plain_obs)


@given(num_tenants=st.integers(min_value=1, max_value=60),
       shards=st.integers(min_value=1, max_value=9),
       policy=st.sampled_from(["hash", "least-loaded", "headroom"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       batch_size=st.integers(min_value=1, max_value=32),
       tenant_loads=st.lists(loads, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_routing_is_deterministic_under_a_fixed_seed(
        num_tenants, shards, policy, seed, batch_size, tenant_loads):
    tenants = [Tenant(tid, tenant_loads[tid % len(tenant_loads)])
               for tid in range(num_tenants)]

    def route():
        router = PlacementRouter(
            shards, policy=policy, seed=seed, batch_size=batch_size,
            load_budget=100.0 if policy == "headroom" else None)
        return _routed(router, tenants)

    first, second = route(), route()
    assert second == first
    assert all(0 <= s < shards for s, _ in first)
    assert sorted(tid for _, tid in first) == \
        [t.tenant_id for t in tenants]


@given(num_tenants=st.integers(min_value=1, max_value=80),
       shards=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16),
       batch_a=st.integers(min_value=1, max_value=40),
       batch_b=st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_hash_routing_ignores_batch_size(num_tenants, shards, seed,
                                         batch_a, batch_b):
    tenants = [Tenant(tid, 0.1) for tid in range(num_tenants)]

    def members(batch_size):
        router = PlacementRouter(shards, policy="hash", seed=seed,
                                 batch_size=batch_size)
        return sorted(_routed(router, tenants))

    assert members(batch_a) == members(batch_b)
