"""Reference implementations the tests check the placement core against.

Nothing in ``src`` calls these: they are slow, from-scratch or
exhaustive restatements of what the core computes incrementally.

* **Index rebuild** — :func:`naive_shared_partners`,
  :func:`naive_worst_failover_load` and :func:`naive_slack` recompute a
  server's shared loads from the raw replica sets, ignoring both the
  incremental ``_shared`` index and the worst-failover cache;
  :func:`check_index` compares a served value (and the shared-load row
  behind it) against that rebuild.  The ``checked_index`` fixture in
  ``tests/conftest.py`` runs it on every ``worst_failover_load`` read.
* **Failure-set enumeration** — :func:`failure_set_audit` tries *every*
  failure set of size up to ``f`` with a pluggable failover function:
  :func:`failover_load` (the paper's conservative accounting, under
  which it must agree with :func:`repro.core.validation.audit`) or
  :func:`exact_failover_load` (exact redistribution, never stricter).
* **Top-f reference** — :func:`reference_worst_shared_sum` and
  :func:`reference_worst_failover` are the two top-f sums the package
  used before :func:`repro.core.placement.worst_shared_sum` replaced
  them: the first merges a bump dict into a copy of the shared-load
  mapping and sums ``heapq.nlargest`` of the merged values plus an
  extras list, the second sums the unbumped top ``f``.  The kernel
  must return the same float bits.
* **Lemma 1** — :func:`shared_tenant_counts` and
  :func:`max_shared_tenants` count the tenants each pair of servers
  shares (at most one for pure second-stage CUBEFIT packings).
"""

import heapq
import itertools

from repro.core.tenant import LOAD_EPS
from repro.core.validation import AuditReport, Violation

#: Absolute tolerance of :func:`check_index`.  The incremental index
#: accumulates float add/subtract round-off that a fresh summation does
#: not, so exact equality is too strict.
INDEX_EPS = 1e-6


# ----------------------------------------------------------------------
# Index rebuild
# ----------------------------------------------------------------------
def naive_shared_partners(placement, server_id):
    """Shared-load partners of ``server_id`` rebuilt from the replica
    sets: walks the server's replicas and their siblings' homes."""
    shared = {}
    for (tenant_id, _index), replica in \
            placement.server(server_id).replicas.items():
        for other_id in placement.tenant_servers(tenant_id).values():
            if other_id != server_id:
                shared[other_id] = shared.get(other_id, 0.0) + replica.load
    return shared


def naive_worst_failover_load(placement, server_id, failures=None):
    """``worst_failover_load`` recomputed from the replica sets."""
    f = placement.gamma - 1 if failures is None else failures
    if f <= 0:
        return 0.0
    values = list(naive_shared_partners(placement, server_id).values())
    if len(values) <= f:
        return sum(values)
    return sum(heapq.nlargest(f, values))


def naive_slack(placement, server_id, failures=None):
    """Capacity minus load minus worst failover load, recomputed from
    the replica sets."""
    server = placement.server(server_id)
    return (server.capacity - server.load
            - naive_worst_failover_load(placement, server_id, failures))


def check_index(placement, server_id, failures, served):
    """Fail if ``served`` (a worst-failover value the index just
    returned) or the indexed shared-load row of ``server_id`` diverges
    from the rebuild by more than :data:`INDEX_EPS`."""
    truth = naive_worst_failover_load(placement, server_id, failures)
    assert abs(truth - served) <= INDEX_EPS, (
        f"slack index divergence on server {server_id} "
        f"(failures={failures}): served {served!r} vs rebuilt {truth!r}")
    rebuilt = naive_shared_partners(placement, server_id)
    indexed = placement.shared_partners_view(server_id)
    for other in set(rebuilt) | set(indexed):
        a, b = indexed.get(other, 0.0), rebuilt.get(other, 0.0)
        assert abs(a - b) <= INDEX_EPS, (
            f"shared-load divergence between servers {server_id} and "
            f"{other}: indexed {a!r} vs rebuilt {b!r}")


# ----------------------------------------------------------------------
# Failure-set enumeration
# ----------------------------------------------------------------------
def failover_load(placement, server_id, failed):
    """Load redirected to ``server_id`` when the servers in ``failed``
    fail, under the paper's conservative accounting: each failed partner
    redirects its full shared load, ``sum(|S ∩ F| for F in failed)``."""
    return sum(placement.shared_load(server_id, f) for f in failed
               if f != server_id)


def exact_failover_load(placement, server_id, failed):
    """Load redirected to ``server_id`` under exact redistribution.

    When ``k`` of a tenant's servers fail, its total load ``x`` is
    re-shared evenly among the ``gamma - k`` survivors, so each
    survivor's share grows from ``x/gamma`` to ``x/(gamma-k)``.  This is
    what the cluster simulator does; it is never larger than
    :func:`failover_load` and equals it when all ``gamma - 1`` partners
    of a tenant fail.
    """
    failed_set = set(failed) - {server_id}
    extra = 0.0
    for tenant_id, _index in placement.server(server_id).replicas:
        homes = set(placement.tenant_servers(tenant_id).values())
        k = len(homes & failed_set)
        survivors = len(homes) - k
        if k == 0 or survivors <= 0:
            continue  # untouched, or fully lost: nothing to redirect
        x = placement.tenant_load(tenant_id)
        extra += x / survivors - x / len(homes)
    return extra


def failure_set_audit(placement, failures=None, failover=failover_load):
    """Audit by enumerating every failure set of size up to ``failures``
    (default ``gamma - 1``) for every server, scoring each set with
    ``failover(placement, server_id, failed)``.  Exponential; only for
    small packings."""
    f = placement.gamma - 1 if failures is None else failures
    report = AuditReport(failures=f, num_servers=placement.num_servers)
    ids = placement.server_ids
    for server in placement:
        others = [i for i in ids if i != server.server_id]
        worst_extra, worst_set = 0.0, ()
        for size in range(min(f, len(others)) + 1):
            for failed in itertools.combinations(others, size):
                extra = failover(placement, server.server_id, failed)
                if extra > worst_extra:
                    worst_extra, worst_set = extra, failed
        slack = server.capacity - server.load - worst_extra
        report.min_slack = min(report.min_slack, slack)
        if slack < -LOAD_EPS:
            report.violations.append(Violation(
                server_id=server.server_id, load=server.load,
                failover_load=worst_extra, failed_set=worst_set,
                capacity=server.capacity))
    if placement.num_servers == 0:
        report.min_slack = placement.capacity
    return report


# ----------------------------------------------------------------------
# Top-f reference
# ----------------------------------------------------------------------
def reference_worst_shared_sum(placement, server_id, failures, bumps=None,
                               extra_partners=()):
    """Sum of the ``failures`` largest shared loads of ``server_id``.

    ``bumps`` maps partner server ids to *additional* shared load that a
    hypothetical placement would create; partners not yet in the shared
    index are allowed.  ``extra_partners`` adds hypothetical *fresh*
    partners with the given shared loads.  The bumps are merged into a
    copy of the live shared-load mapping: existing partners are bumped
    in place, fresh ones follow in bump order.  When every partner
    survives the cut the merged values are summed in that order and the
    extras added as their own sum; otherwise the top ``failures`` of the
    merged values and the extras are summed in descending order.
    """
    shared = placement.shared_partners_view(server_id)
    if failures <= 0:
        return 0.0
    if bumps:
        shared = dict(shared)
        for other, extra in bumps.items():
            if other != server_id:
                shared[other] = shared.get(other, 0.0) + extra
    values = shared.values()
    if len(values) + len(extra_partners) <= failures:
        return sum(values, 0.0) + sum(extra_partners)
    return sum(heapq.nlargest(failures, [*values, *extra_partners]))


def reference_worst_failover(placement, server_id, f):
    """Top-``f`` sum over the server's shared-load partners (an int 0
    when it has none)."""
    values = placement.shared_partners_view(server_id).values()
    if len(values) <= f:
        return sum(values)
    return sum(heapq.nlargest(f, values))


# ----------------------------------------------------------------------
# Lemma 1
# ----------------------------------------------------------------------
def shared_tenant_counts(placement):
    """Number of tenants shared by each pair of servers that share any,
    keyed by the ordered pair ``(min_id, max_id)``."""
    counts = {}
    for tenant_id in placement.tenant_ids:
        homes = sorted(placement.tenant_servers(tenant_id).values())
        for pair in itertools.combinations(homes, 2):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def max_shared_tenants(placement):
    """Largest number of tenants any two servers share (Lemma 1: 1 for
    pure second-stage CUBEFIT packings)."""
    return max(shared_tenant_counts(placement).values(), default=0)
