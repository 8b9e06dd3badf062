"""Oracle property: the feasibility check matches placing for real.

:func:`robust_after_placement` decides from the shared-load index
whether a replica may land on a server while its tenant's earlier
replicas sit on ``chosen`` and ``future_siblings`` more are still to
come.  The oracle makes that placement on a deep copy — the probed
replica on its server, the remaining siblings on fresh servers (the
case ``future_siblings`` must anticipate, since no later check guards
them) — and recomputes the slack of the probed server and of every
server in ``chosen`` from the replica sets.  The two must agree on
every input, and every call counts exactly one ``feasibility.exact``.

Below the check sits one top-f kernel,
:func:`~repro.core.placement.worst_shared_sum`, which reads the live
shared-load mapping in place.  It must return the same float bits as
the merge-and-``nlargest`` reference it replaced
(:func:`tests.oracles.reference_worst_shared_sum`), and the failover
cache it fills must match :func:`tests.oracles.reference_worst_failover`.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import robust_after_placement
from repro.core.placement import PlacementState, worst_shared_sum
from repro.core.tenant import LOAD_EPS, Replica, Tenant
from repro.errors import CapacityError
from repro.obs import MetricsRegistry
from tests.oracles import (naive_slack, reference_worst_failover,
                           reference_worst_shared_sum)

pytestmark = pytest.mark.usefixtures("checked_index")

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
            # check must anticipate sibling bumps correctly.
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


def _oracle(ps, replicas, server_id, chosen, failures):
    """Place ``replicas[len(chosen)]`` on ``server_id`` and the rest on
    fresh servers in a copy of ``ps``; True iff every replica fits and
    ``server_id`` and the ``chosen`` servers keep non-negative slack."""
    clone = copy.deepcopy(ps)
    try:
        clone.place(replicas[len(chosen)], server_id)
        for replica in replicas[len(chosen) + 1:]:
            clone.place(replica, clone.open_server().server_id)
    except CapacityError:
        return False
    return all(naive_slack(clone, sid, failures) >= -LOAD_EPS
               for sid in (server_id, *chosen))


@given(gamma=st.integers(2, 4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_check_matches_placement_oracle(gamma, data):
    base = _random_placement(data, gamma)
    registry = MetricsRegistry()
    calls = 0
    for probe in range(data.draw(st.integers(1, 12), label="n_probes")):
        replica_load = data.draw(st.floats(0.001, 1.2),
                                 label=f"replica_load[{probe}]")
        replicas = [Replica(10**6 + probe, j, replica_load)
                    for j in range(gamma)]
        perm = data.draw(st.permutations(base.server_ids),
                         label=f"servers[{probe}]")
        server_id = perm[0]
        n_chosen = data.draw(st.integers(0, min(gamma - 1,
                                                len(perm) - 1)),
                             label=f"n_chosen[{probe}]")
        chosen = perm[1:1 + n_chosen]
        failures = data.draw(st.integers(0, gamma), label=f"f[{probe}]")
        ps = copy.deepcopy(base)
        try:
            for replica, sid in zip(replicas, chosen):
                ps.place(replica, sid)
        except CapacityError:
            continue
        decision = robust_after_placement(
            ps, server_id, replica_load, chosen, failures,
            future_siblings=gamma - 1 - n_chosen, obs=registry)
        calls += 1
        assert registry.counter("feasibility.exact").value == calls
        expected = _oracle(ps, replicas, server_id, chosen, failures)
        assert decision == expected, (
            f"check diverged from placement: server={server_id} "
            f"load={replica_load!r} chosen={list(chosen)} f={failures} "
            f"check={decision} oracle={expected}")


@given(gamma=st.integers(2, 4), data=st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_reference_bit_for_bit(gamma, data):
    ps = _random_placement(data, gamma)
    ids = ps.server_ids
    # Ids past the last server stand for partners that do not exist yet.
    pool = ids + [ps.num_servers, ps.num_servers + 1]
    shares = sorted({v for sid in ids
                     for v in ps.shared_partners_view(sid).values()})
    for sid in ids:
        for f in range(5):
            got = ps.worst_failover_load(sid, f)
            want = float(reference_worst_failover(ps, sid, f))
            assert type(got) is float
            assert got.hex() == want.hex(), (sid, f, got, want)
    for probe in range(data.draw(st.integers(1, 8), label="n_probes")):
        server_id = data.draw(st.sampled_from(ids), label=f"sid[{probe}]")
        failures = data.draw(st.integers(0, 4), label=f"f[{probe}]")
        bumped = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                    max_size=4),
                           label=f"bumped[{probe}]")
        # Loads equal to a live share exercise ties in the top-f cut.
        load = data.draw(st.floats(0.0, 0.8) | st.sampled_from(shares)
                         if shares else st.floats(0.0, 0.8),
                         label=f"load[{probe}]")
        future = data.draw(st.integers(0, 3), label=f"future[{probe}]")
        got = worst_shared_sum(ps, server_id, failures, bumped, load,
                               future)
        want = reference_worst_shared_sum(
            ps, server_id, failures, {p: load for p in bumped},
            [load] * future)
        assert got.hex() == float(want).hex(), (
            f"kernel diverged: server={server_id} f={failures} "
            f"bumped={bumped} load={load!r} future={future} "
            f"kernel={got!r} reference={want!r}")
