"""Differential property: screened feasibility == exact feasibility.

:func:`robust_after_placement` decides most probes from two cheap
bounds on the cached worst-failover load and only falls through to the
exact :func:`worst_shared_sum` inside the ambiguous band.  The screen
is only sound if its decision matches the reference semantics of
:func:`exact_robust_after_placement` on *every* input — including
partially placed tenants, sibling bumps against already-chosen servers,
reserve headroom and anticipated future siblings.  These tests probe
random placements with random queries and demand bit-equal decisions,
and pin the observability contract (``feasibility.screened`` /
``feasibility.exact`` counters account for every call).
"""

from hypothesis import given, settings, strategies as st

from repro.algorithms.base import (SCREEN_MARGIN,
                                   exact_robust_after_placement,
                                   robust_after_placement)
from repro.core.placement import PlacementState
from repro.core.tenant import Tenant
from repro.errors import CapacityError
from repro.obs import MetricsRegistry

MAX_SERVERS = 8


def _random_placement(data, gamma):
    """Grow a placement through a drawn interleaving of mutations."""
    ps = PlacementState(gamma=gamma)
    for _ in range(gamma + 1):
        ps.open_server()
    next_tid = 0
    for step in range(data.draw(st.integers(3, 20), label="n_ops")):
        op = data.draw(
            st.sampled_from(["place_tenant", "partial", "remove",
                             "open_server"]),
            label=f"op[{step}]")
        if op == "open_server" and ps.num_servers < MAX_SERVERS:
            ps.open_server()
        elif op == "place_tenant":
            load = data.draw(st.floats(0.01, 0.8), label="load")
            perm = data.draw(st.permutations(ps.server_ids),
                             label="targets")
            try:
                ps.place_tenant(Tenant(next_tid, load), perm[:gamma])
            except CapacityError:
                continue
            next_tid += 1
        elif op == "partial":
            # Partially placed tenants are the interesting case: the
            # screen must anticipate sibling bumps correctly.
            load = data.draw(st.floats(0.01, 0.8), label="load")
            tenant = Tenant(next_tid, load)
            count = data.draw(st.integers(1, gamma), label="count")
            perm = data.draw(st.permutations(ps.server_ids),
                             label="targets")
            try:
                for replica, sid in zip(tenant.replicas(gamma)[:count],
                                        perm):
                    ps.place(replica, sid)
            except CapacityError:
                pass
            next_tid += 1
        elif op == "remove" and ps.tenant_ids:
            victim = data.draw(st.sampled_from(ps.tenant_ids),
                               label="victim")
            ps.remove_tenant(victim)
    return ps


@given(gamma=st.integers(2, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_screened_matches_exact_on_random_probes(gamma, data):
    ps = _random_placement(data, gamma)
    registry = MetricsRegistry()
    n_probes = data.draw(st.integers(1, 12), label="n_probes")
    for probe in range(n_probes):
        replica_load = data.draw(st.floats(0.001, 1.2),
                                 label=f"replica_load[{probe}]")
        perm = data.draw(st.permutations(ps.server_ids),
                         label=f"servers[{probe}]")
        server_id = perm[0]
        n_chosen = data.draw(st.integers(0, min(gamma - 1,
                                                len(perm) - 1)),
                             label=f"n_chosen[{probe}]")
        chosen = perm[1:1 + n_chosen]
        failures = data.draw(st.integers(0, gamma), label=f"f[{probe}]")
        extra_reserve = data.draw(
            st.sampled_from([0.0, 0.05, 0.3]),
            label=f"reserve[{probe}]")
        future_siblings = data.draw(
            st.integers(0, gamma - 1 - n_chosen),
            label=f"future[{probe}]")
        screened = robust_after_placement(
            ps, server_id, replica_load, chosen, failures,
            extra_reserve=extra_reserve,
            future_siblings=future_siblings, obs=registry)
        exact = exact_robust_after_placement(
            ps, server_id, replica_load, chosen, failures,
            extra_reserve=extra_reserve,
            future_siblings=future_siblings)
        assert screened == exact, (
            f"screen diverged: server={server_id} load={replica_load} "
            f"chosen={list(chosen)} f={failures} "
            f"reserve={extra_reserve} future={future_siblings} "
            f"screened={screened} exact={exact}")
    snapshot = registry.snapshot()
    counted = snapshot.get("feasibility.screened", {}).get("value", 0) \
        + snapshot.get("feasibility.exact", {}).get("value", 0)
    assert counted == n_probes


@given(gamma=st.integers(2, 3), data=st.data())
@settings(max_examples=30, deadline=None)
def test_screen_near_boundary_loads(gamma, data):
    """Stress the ambiguous band: loads sized so post-placement headroom
    lands close to the cached worst-failover bound, including nudges
    onto the ``SCREEN_MARGIN`` guard-band edges, where one ULP of
    drift would flip a screened decision."""
    ps = _random_placement(data, gamma)
    registry = MetricsRegistry()
    for sid in ps.server_ids:
        server = ps.server(sid)
        cached = ps.worst_failover_load(sid, gamma - 1)
        headroom = server.capacity - server.load - cached
        for nudge in (-1e-6, -1e-12, -SCREEN_MARGIN, 0.0,
                      SCREEN_MARGIN, 1e-12, 1e-6):
            replica_load = headroom + nudge
            if replica_load <= 0.0:
                continue
            screened = robust_after_placement(
                ps, sid, replica_load, (), gamma - 1, obs=registry)
            exact = exact_robust_after_placement(
                ps, sid, replica_load, (), gamma - 1)
            assert screened == exact, (
                f"boundary divergence: server={sid} "
                f"load={replica_load!r} screened={screened} "
                f"exact={exact}")


def test_counters_split_by_decision_path():
    """A wide-open server screens; a near-full one needs the exact sum."""
    ps = PlacementState(gamma=2)
    for _ in range(3):
        ps.open_server()
    ps.place_tenant(Tenant(0, 0.5), [0, 1])
    registry = MetricsRegistry()
    # Tiny replica on an empty server: sufficient bound accepts outright.
    assert robust_after_placement(ps, 2, 0.01, (), 1, obs=registry)
    # Huge replica: necessary bound rejects outright.
    assert not robust_after_placement(ps, 0, 5.0, (), 1, obs=registry)
    snapshot = registry.snapshot()
    assert snapshot["feasibility.screened"]["value"] == 2
    assert "feasibility.exact" not in snapshot
    # Sibling bump against the shared partner forces the exact path.
    robust_after_placement(ps, 0, 0.45, (1,), 1, obs=registry)
    snapshot = registry.snapshot()
    assert snapshot.get("feasibility.exact", {}).get("value", 0) >= 1
