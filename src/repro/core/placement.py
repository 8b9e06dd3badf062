"""Placement state with exact shared-load accounting.

This module is the substrate every consolidation algorithm builds on.  It
tracks, incrementally and exactly:

* which server hosts which replica,
* per-server load (the bin *level*),
* the pairwise **shared load** ``|S_i ∩ S_j|`` — the total load of
  replicas on ``S_i`` whose tenant also has a replica on ``S_j``.

The paper's robustness condition (Section II) is expressed directly in
these terms: a packing tolerates any ``f`` simultaneous server failures
iff for every server ``S_i`` and every set ``S*`` of at most ``f`` other
servers::

    |S_i| + sum(|S_i ∩ S_j| for S_j in S*) <= 1

Because shared loads are non-negative, the worst ``f``-subset for a given
server is simply its ``f`` largest shared-load partners, which makes the
audit linear-time per server.

On top of the exact shared-load index the state maintains an
**incremental slack index**: each server's worst-case failover load is
memoized and invalidated only when that server's shared-load set can
have changed — on :meth:`place` / :meth:`unplace` that is the target
server plus the tenant's sibling servers.  Consumers that keep their own
per-server derived data (the validator's
:class:`~repro.core.validation.IncrementalAuditor`, the algorithms'
:class:`~repro.algorithms.base.ServerIndex`) subscribe to the same
invalidation stream through :meth:`dirty_tracker`, so after each
placement they re-evaluate ``O(affected servers)`` instead of the whole
fleet.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Set, Tuple

from ..errors import ConfigurationError, PlacementError
from .server import Server, UNIT_CAPACITY
from .tenant import LOAD_EPS, Replica, Tenant

ReplicaKey = Tuple[int, int]

class DirtyTracker:
    """One consumer's view of which servers changed since its last drain.

    Obtained from :meth:`PlacementState.dirty_tracker`.  Every mutation
    of the placement adds the affected server ids (the mutated server
    plus the tenant's sibling servers, whose shared-load sets changed
    too) to every live tracker.  A consumer periodically calls
    :meth:`drain` and re-derives its per-server data for exactly those
    ids.  A fresh tracker starts with every existing server dirty, so a
    late-subscribing consumer sees the full fleet once and increments
    afterwards.
    """

    __slots__ = ("_placement", "_dirty")

    def __init__(self, placement: "PlacementState") -> None:
        self._placement = placement
        self._dirty: Set[int] = set(placement._servers)

    def drain(self) -> Set[int]:
        """Return and clear the accumulated dirty server ids."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def close(self) -> None:
        """Unsubscribe from the placement's invalidation stream."""
        try:
            self._placement._trackers.remove(self)
        except ValueError:
            pass


class PlacementState:
    """Mutable assignment of replicas to servers.

    Parameters
    ----------
    gamma:
        Replication factor (replicas per tenant); typically 2 or 3.
    capacity:
        Per-server capacity; the paper normalizes this to 1.

    Notes
    -----
    All mutations go through :meth:`place` / :meth:`unplace` (or the
    tenant-level helpers :meth:`place_tenant` / :meth:`remove_tenant`) so
    the shared-load index stays consistent.  Algorithms must never touch
    :class:`~repro.core.server.Server` objects directly for mutation.
    """

    def __init__(self, gamma: int, capacity: float = UNIT_CAPACITY) -> None:
        if gamma < 1:
            raise ConfigurationError(f"gamma must be >= 1, got {gamma}")
        if capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity}")
        self.gamma = gamma
        self.capacity = capacity
        self._servers: Dict[int, Server] = {}
        self._next_server_id = 0
        #: symmetric shared-load index: shared[a][b] == |S_a ∩ S_b|
        self._shared: Dict[int, Dict[int, float]] = {}
        #: tenant_id -> {replica index -> server id}
        self._tenant_servers: Dict[int, Dict[int, int]] = {}
        #: tenant_id -> tenant load (needed to rebuild shares on removal)
        self._tenant_loads: Dict[int, float] = {}
        #: server id -> {failure budget -> worst-case failover load}
        self._wfl_cache: Dict[int, Dict[int, float]] = {}
        #: live consumer handles fed by every mutation
        self._trackers: List[DirtyTracker] = []

    # ------------------------------------------------------------------
    # Slack-index plumbing
    # ------------------------------------------------------------------
    def _touch(self, server_ids: Iterable[int]) -> None:
        """Invalidate cached slack data for ``server_ids``.

        Called by every mutation with the servers whose load or
        shared-load set changed; feeds all subscribed dirty trackers.
        """
        ids = server_ids if type(server_ids) is tuple else tuple(server_ids)
        wfl_pop = self._wfl_cache.pop
        for sid in ids:
            wfl_pop(sid, None)
        for tracker in self._trackers:
            tracker._dirty.update(ids)

    def dirty_tracker(self) -> DirtyTracker:
        """Subscribe to the invalidation stream.

        Returns a :class:`DirtyTracker` that accumulates the ids of
        servers affected by subsequent mutations (pre-seeded with every
        existing server).  Call :meth:`DirtyTracker.close` when done so
        mutations stop paying for the subscription.
        """
        tracker = DirtyTracker(self)
        self._trackers.append(tracker)
        return tracker

    # ------------------------------------------------------------------
    # Server inventory
    # ------------------------------------------------------------------
    def open_server(self) -> Server:
        """Provision a fresh, empty server and return it."""
        server = Server(server_id=self._next_server_id,
                        capacity=self.capacity)
        self._servers[server.server_id] = server
        self._shared[server.server_id] = {}
        self._next_server_id += 1
        self._touch((server.server_id,))
        return server

    def server(self, server_id: int) -> Server:
        """Look up a server by id."""
        try:
            return self._servers[server_id]
        except KeyError:
            raise PlacementError(f"no such server: {server_id}") from None

    @property
    def servers(self) -> List[Server]:
        """All provisioned servers, in id order."""
        return [self._servers[i] for i in sorted(self._servers)]

    @property
    def server_ids(self) -> List[int]:
        return sorted(self._servers)

    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self) -> Iterator[Server]:
        return iter(self.servers)

    @property
    def num_servers(self) -> int:
        """Number of provisioned servers (the objective to minimize)."""
        return len(self._servers)

    @property
    def num_nonempty_servers(self) -> int:
        """Servers currently hosting at least one replica."""
        return sum(1 for s in self._servers.values() if len(s) > 0)

    @property
    def num_tenants(self) -> int:
        return len(self._tenant_servers)

    # ------------------------------------------------------------------
    # Replica placement
    # ------------------------------------------------------------------
    def place(self, replica: Replica, server_id: int) -> None:
        """Host ``replica`` on server ``server_id``.

        Updates the shared-load index against every sibling replica of the
        same tenant that is already placed.
        """
        server = self._servers.get(server_id)
        if server is None:
            server = self.server(server_id)  # raises the canonical error
        tenant_id = replica.tenant_id
        siblings = self._tenant_servers.get(tenant_id)
        if siblings is not None and replica.index in siblings:
            raise PlacementError(
                f"replica {replica.key} is already placed on server "
                f"{siblings[replica.index]}")
        server.add(replica)  # validates capacity and tenant-distinctness
        load = replica.load
        if siblings:
            shared = self._shared
            shared_here = shared[server_id]
            here_get = shared_here.get
            for other_id in siblings.values():
                # Each replica of the tenant has the same load, so the
                # shared load grows symmetrically by one replica load on
                # both sides.
                shared_here[other_id] = here_get(other_id, 0.0) + load
                shared_other = shared[other_id]
                shared_other[server_id] = \
                    shared_other.get(server_id, 0.0) + load
            self._touch((server_id, *siblings.values()))
        else:
            self._touch((server_id,))
            if siblings is None:
                siblings = self._tenant_servers[tenant_id] = {}
                self._tenant_loads[tenant_id] = 0.0
        siblings[replica.index] = server_id
        self._tenant_loads[tenant_id] += load

    def unplace(self, replica_key: ReplicaKey, server_id: int) -> Replica:
        """Remove a replica (rollback support); inverse of :meth:`place`."""
        server = self.server(server_id)
        replica = server.remove(replica_key)
        tenant_id, index = replica_key
        siblings = self._tenant_servers[tenant_id]
        del siblings[index]
        shared_here = self._shared[server_id]
        for other_id in siblings.values():
            shared_here[other_id] -= replica.load
            if shared_here[other_id] <= LOAD_EPS:
                del shared_here[other_id]
            shared_other = self._shared[other_id]
            shared_other[server_id] -= replica.load
            if shared_other[server_id] <= LOAD_EPS:
                del shared_other[server_id]
        self._touch((server_id, *siblings.values()))
        self._tenant_loads[tenant_id] -= replica.load
        if not siblings:
            del self._tenant_servers[tenant_id]
            del self._tenant_loads[tenant_id]
        return replica

    def place_tenant(self, tenant: Tenant,
                     server_ids: Sequence[int]) -> None:
        """Place all ``gamma`` replicas of ``tenant`` at once.

        ``server_ids[j]`` receives replica ``j``.  The ids must be
        pairwise distinct and exactly ``gamma`` of them must be given.
        Atomic: on failure, successfully placed replicas are rolled back.
        """
        if len(server_ids) != self.gamma:
            raise PlacementError(
                f"tenant {tenant.tenant_id}: expected {self.gamma} target "
                f"servers, got {len(server_ids)}")
        if len(set(server_ids)) != len(server_ids):
            raise PlacementError(
                f"tenant {tenant.tenant_id}: target servers must be "
                f"distinct, got {server_ids}")
        placed: List[Tuple[ReplicaKey, int]] = []
        try:
            for replica, server_id in zip(tenant.replicas(self.gamma),
                                          server_ids):
                self.place(replica, server_id)
                placed.append((replica.key, server_id))
        except Exception:
            for key, server_id in reversed(placed):
                self.unplace(key, server_id)
            raise

    def remove_tenant(self, tenant_id: int) -> None:
        """Remove every replica of ``tenant_id`` from the placement."""
        try:
            siblings = dict(self._tenant_servers[tenant_id])
        except KeyError:
            raise PlacementError(
                f"tenant {tenant_id} is not placed") from None
        for index, server_id in siblings.items():
            self.unplace((tenant_id, index), server_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def tenant_servers(self, tenant_id: int) -> Dict[int, int]:
        """Mapping ``replica index -> server id`` for a placed tenant."""
        return dict(self._tenant_servers.get(tenant_id, {}))

    def tenant_load(self, tenant_id: int) -> float:
        """Total placed load of the tenant (sum over placed replicas)."""
        return self._tenant_loads.get(tenant_id, 0.0)

    @property
    def tenant_ids(self) -> List[int]:
        return sorted(self._tenant_servers)

    def shared_load(self, a: int, b: int) -> float:
        """``|S_a ∩ S_b|``: load on ``a`` of tenants also replicated on ``b``."""
        return self._shared[a].get(b, 0.0)

    def shared_partners(self, server_id: int) -> Dict[int, float]:
        """All servers sharing at least one tenant with ``server_id``."""
        return dict(self._shared[server_id])

    def shared_partners_view(self, server_id: int) -> Dict[int, float]:
        """Live (uncopied) shared-load mapping of ``server_id``.

        The result aliases the internal index and mutates with the
        placement; callers must treat it as **read-only** and must not
        hold it across mutations.  The top-f kernel
        (:func:`worst_shared_sum`) reads it this way, so a feasibility
        probe copies nothing; everything else should prefer
        :meth:`shared_partners`.
        """
        try:
            return self._shared[server_id]
        except KeyError:
            raise PlacementError(f"no such server: {server_id}") from None

    def worst_failover_load(self, server_id: int,
                            failures: Optional[int] = None) -> float:
        """Upper bound on load redirected to ``server_id``.

        This is the paper's worst case over failure sets: the sum of the
        ``failures`` largest shared loads of the server (defaults to
        ``gamma - 1`` failures), computed by :func:`worst_shared_sum`.
        Memoized per ``(server, failures)``; the cache entry is dropped
        whenever the server's load or shared-load set changes, so
        serving a hit is O(1) and the cost of a mutation is
        O(affected servers), not O(fleet).
        """
        f = self.gamma - 1 if failures is None else failures
        if f <= 0:
            return 0.0
        per_server = self._wfl_cache.get(server_id)
        if per_server is None:
            per_server = self._wfl_cache[server_id] = {}
        value = per_server.get(f)
        if value is None:
            value = per_server[f] = worst_shared_sum(self, server_id, f)
        return value

    def utilization(self) -> float:
        """Mean load across non-empty servers (paper's 'average server
        utilization' statistic)."""
        nonempty = [s for s in self._servers.values() if len(s) > 0]
        if not nonempty:
            return 0.0
        return sum(s.load for s in nonempty) / len(nonempty)

    def total_load(self) -> float:
        """Total placed replica load across all servers."""
        return sum(s.load for s in self._servers.values())

    def snapshot(self) -> Dict[int, List[ReplicaKey]]:
        """Cheap, copyable description of the assignment for reporting."""
        return {sid: sorted(server.replicas)
                for sid, server in self._servers.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlacementState(gamma={self.gamma}, "
                f"servers={self.num_servers}, tenants={self.num_tenants})")


def worst_shared_sum(placement: PlacementState, server_id: int,
                     failures: int, bumped: Sequence[int] = (),
                     load: float = 0.0, future: int = 0) -> float:
    """Sum of the ``failures`` largest shared loads of ``server_id``.

    It fills the :meth:`PlacementState.worst_failover_load` cache and
    answers the exact feasibility probe
    (:func:`~repro.algorithms.base.robust_after_placement`), which asks
    what the sum would be after a hypothetical placement:

    * ``bumped`` names distinct partner servers whose shared load grows
      by ``load`` (partners not yet in the index are allowed;
      ``server_id`` itself is ignored);
    * ``future`` adds that many fresh partners of shared load ``load``
      (sibling replicas that have not been placed yet).

    The live shared-load mapping is read in place.  One or two failures
    (gamma 2 and 3) take one pass that keeps the largest value or the
    two largest and allocate nothing; a bumped partner's live entry is
    skipped because its bumped value replaces it.  A larger budget
    merges the bumps into a copy and sums ``heapq.nlargest``.  Each
    path returns the same float as summing the merged top ``failures``
    in descending order: a top-1 sum is one value and a two-term sum is
    commutative.
    """
    shared = placement.shared_partners_view(server_id)
    if failures <= 0:
        return 0.0
    if failures == 1:
        worst = 0.0
        for value in shared.values():
            if value > worst:
                worst = value
        if future and load > worst:
            worst = load
        for other in bumped:
            if other != server_id:
                value = shared.get(other, 0.0) + load
                if value > worst:
                    worst = value
        return worst
    if failures == 2:
        first = second = 0.0
        for other, value in shared.items():
            if value > second and other not in bumped:
                if value > first:
                    first, second = value, first
                else:
                    second = value
        for other in bumped:
            if other != server_id:
                value = shared.get(other, 0.0) + load
                if value > first:
                    first, second = value, first
                elif value > second:
                    second = value
        if future and load > second:
            if load <= first:
                second = load
            elif future > 1:
                first = second = load
            else:
                first, second = load, first
        return first + second
    if bumped:
        shared = dict(shared)
        for other in bumped:
            if other != server_id:
                shared[other] = shared.get(other, 0.0) + load
    values = shared.values()
    extras = [load] * future
    if len(values) + future <= failures:
        return sum(values, 0.0) + sum(extras)
    return sum(heapq.nlargest(failures, [*values, *extras]))
