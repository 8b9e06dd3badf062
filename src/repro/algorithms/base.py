"""Base class, registry, and shared machinery for placement algorithms.

Every consolidation algorithm in this package is *online*: it receives
tenants one at a time through :meth:`OnlinePlacementAlgorithm.place` and
must commit each tenant's ``gamma`` replicas to servers before seeing the
next tenant.

The module also provides :class:`ServerIndex`, a small numpy-backed view
over a :class:`~repro.core.placement.PlacementState` that supports the
hot operation both CUBEFIT's first stage and RFI need: *"among servers
with at least ``r`` robust availability, try candidates from the fullest
down"* without scanning every server in Python.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Type)

import numpy as np

from .. import faults
from ..core.placement import PlacementState, worst_shared_sum
from ..core.tenant import LOAD_EPS, Replica, Tenant
from ..errors import ConfigurationError, FaultInjected
from ..obs import LATENCY_BUCKETS


class OnlinePlacementAlgorithm(ABC):
    """Interface all placement algorithms implement.

    Subclasses define :attr:`name` (used by the registry and reports) and
    the :meth:`_place` hook.  A fresh instance holds a fresh, empty
    :class:`PlacementState`; instances are single-use per tenant sequence.

    The public mutation entry points (:meth:`place`, :meth:`remove`,
    :meth:`update_load`) are thin instrumented wrappers around the
    ``_place`` / ``_remove`` / ``_update_load`` hooks: when a
    :class:`~repro.obs.MetricsRegistry` is attached via
    :meth:`attach_obs` they emit per-operation counters, duration
    histograms, and journal events (including ``open_server`` events
    for every server a placement opened); with nothing attached each
    wrapper pays a single ``is None`` check.

    ``gamma = 1`` (no replication, hence no failure tolerance —
    :attr:`guaranteed_failures` is 0) is accepted by the base class;
    algorithms whose guarantees require replication (RFI's one-failure
    reserve, CUBEFIT's cube geometry) enforce ``gamma >= 2`` themselves.
    """

    #: Registry/report identifier; subclasses must override.
    name: str = "abstract"

    def __init__(self, gamma: int, capacity: float = 1.0) -> None:
        if gamma < 1:
            raise ConfigurationError(
                f"replication factor gamma must be >= 1, got {gamma}")
        self.gamma = gamma
        self.placement = PlacementState(gamma=gamma, capacity=capacity)
        #: Wall-clock seconds spent inside :meth:`place` calls.
        self.placement_seconds = 0.0
        #: Attached metrics registry (None = uninstrumented).
        self._obs = None
        #: Attached durable store (None = not persisted).
        self._store = None

    # ------------------------------------------------------------------
    # Observability / durability
    # ------------------------------------------------------------------
    def attach_obs(self, registry) -> None:
        """Attach a :class:`~repro.obs.MetricsRegistry` (or detach with
        ``None``)."""
        self._obs = registry

    @property
    def obs(self):
        """The attached metrics registry, if any."""
        return self._obs

    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.store.DurableStore` (or detach with
        ``None``).

        Once attached, every committed mutation — :meth:`place`,
        :meth:`remove`, :meth:`update_load`, plus the servers they open
        — is appended to the store's write-ahead log *after* it has been
        applied in memory, so the log never records an operation that
        failed.  Binding writes the run's invariants (gamma, capacity,
        algorithm name, failure budget) to the store's ``meta.json``.
        """
        self._store = store
        if store is not None:
            store.bind(self)

    @property
    def store(self):
        """The attached durable store, if any."""
        return self._store

    def _record_op(self, obs, kind: str, seconds: float,
                   opened_before: int, **fields) -> None:
        """Emit the metrics + journal events of one mutation."""
        obs.counter(f"placement.{kind}").inc()
        obs.histogram(f"placement.{kind}.seconds",
                      buckets=LATENCY_BUCKETS).observe(seconds)
        opened = self.placement.num_servers - opened_before
        if opened > 0:
            obs.counter("placement.servers_opened").inc(opened)
            for sid in range(opened_before, self.placement.num_servers):
                obs.emit("open_server", server=sid)
        obs.emit(kind, seconds=seconds, **fields)

    # ------------------------------------------------------------------
    # Instrumented public entry points
    # ------------------------------------------------------------------
    @abstractmethod
    def _place(self, tenant: Tenant) -> Tuple[int, ...]:
        """Place all replicas of ``tenant``; return the server ids used.

        Contract: ``chosen[j]`` is the server hosting replica ``j`` —
        the returned tuple is in replica-index order.  WAL replay
        (:mod:`repro.store.recovery`) reconstructs placements from these
        tuples via :meth:`PlacementState.place_tenant`, so an
        implementation returning servers in any other order would break
        crash recovery.
        """

    def _rollback_partial(self, tenant_id: int) -> None:
        """Unwind whatever replicas of ``tenant_id`` a hook interrupted
        by an injected fault left behind (fault-transactional place).

        Index-based algorithms heal through the placement's dirty
        tracker; algorithms with per-tenant side bookkeeping outside
        the placement (CUBEFIT's multi-replica slots) are only safe
        against faults at seams that fire *before* the hook mutates
        anything — see ``docs/testing.md``.
        """
        for index, sid in sorted(
                self.placement.tenant_servers(tenant_id).items()):
            self.placement.unplace((tenant_id, index), sid)

    def place(self, tenant: Tenant) -> Tuple[int, ...]:
        """Place all replicas of ``tenant``; return the server ids used."""
        obs = self._obs
        store = self._store
        if obs is None and store is None and not faults.active():
            return self._place(tenant)
        faults.fire("algo.place")
        before = self.placement.num_servers
        start = time.perf_counter()
        try:
            chosen = self._place(tenant)
        except FaultInjected:
            self._rollback_partial(tenant.tenant_id)
            raise
        seconds = time.perf_counter() - start
        if store is not None:
            store.log_open_through(self.placement._next_server_id)
            store.log_place(tenant.tenant_id, tenant.load, chosen)
        if obs is not None:
            self._record_op(obs, "place", seconds,
                            before, tenant=tenant.tenant_id,
                            load=tenant.load, servers=list(chosen))
        return chosen

    #: Arrival-chunk length of the consolidate benchmark workload
    #: (``perfbench/consolidate.py`` feeds its stream to
    #: :meth:`consolidate` in calls of this many tenants and reads the
    #: value from here).  Placement itself is strictly one tenant at a
    #: time, so no code path in the package chunks by it.
    DEFAULT_BATCH = 256

    def consolidate(self, tenants: Iterable[Tenant]) -> PlacementState:
        """Place an entire (online) sequence, tracking wall time.

        Tenants are placed one at a time, in arrival order, through
        :meth:`place`.  Returns the final placement for
        inspection/auditing.
        """
        start = time.perf_counter()
        for tenant in tenants:
            self.place(tenant)
        self.placement_seconds += time.perf_counter() - start
        return self.placement

    def _remove(self, tenant_id: int) -> None:
        """Departure hook; see :meth:`remove` for semantics."""
        self.placement.remove_tenant(tenant_id)

    def remove(self, tenant_id: int) -> None:
        """Handle a tenant's departure (dynamic tenancy).

        Removing replicas only ever lowers loads and shared loads, so
        every robustness invariant is preserved for free; subclasses
        extend the :meth:`_remove` hook to reclaim algorithm-specific
        bookkeeping (e.g. CUBEFIT shrinks an active multi-replica).
        Freed space is reused by subsequent placements through the
        normal candidate search; any :class:`ServerIndex` picks up the
        freed servers through the placement's dirty tracker.
        """
        obs = self._obs
        store = self._store
        if obs is None and store is None and not faults.active():
            self._remove(tenant_id)
            return
        faults.fire("algo.remove")
        before = self.placement.num_servers
        start = time.perf_counter()
        self._remove(tenant_id)
        seconds = time.perf_counter() - start
        if store is not None:
            store.log_remove(tenant_id)
        if obs is not None:
            self._record_op(obs, "remove", seconds,
                            before, tenant=tenant_id)

    def _update_load(self, tenant_id: int,
                     new_load: float) -> Tuple[int, ...]:
        """Elastic-resize hook; see :meth:`update_load` for semantics.

        Calls the ``_remove`` / ``_place`` hooks directly so an
        instrumented resize journals as a single ``resize`` event, not
        a remove + place pair.
        """
        self._remove(tenant_id)
        return self._place(Tenant(tenant_id, new_load))

    def update_load(self, tenant_id: int,
                    new_load: float) -> Tuple[int, ...]:
        """Handle an elastic load change (the tenant grew or shrank).

        The paper's load model is per-arrival static; elastic tenants
        (the RTP baseline's setting) change load as their client count
        changes.  The safe generic strategy is remove-and-replace: the
        tenant departs and immediately re-arrives with the new load, so
        every robustness invariant is enforced by the normal placement
        path.  The tenant may move servers — that is the migration cost
        of elasticity; subclasses can override :meth:`_update_load`
        with an in-place fast path when the new load still fits the old
        slots.

        Returns the server ids hosting the tenant afterwards.
        """
        if new_load <= 0.0:
            raise ConfigurationError(
                f"new_load must be positive, got {new_load!r}")
        if not self.placement.tenant_servers(tenant_id):
            raise ConfigurationError(
                f"tenant {tenant_id} is not placed")
        obs = self._obs
        store = self._store
        if obs is None and store is None and not faults.active():
            return self._update_load(tenant_id, new_load)
        faults.fire("algo.update_load")
        prior = None
        if faults.active():
            # Captured only under active fault injection: an injected
            # fault mid-resize restores the pre-resize replicas with
            # their exact loads (fault-transactional update_load).
            prior = [(index, sid,
                      self.placement.server(sid)
                          .replicas[(tenant_id, index)].load)
                     for index, sid in sorted(
                         self.placement.tenant_servers(tenant_id).items())]
        before = self.placement.num_servers
        start = time.perf_counter()
        try:
            chosen = self._update_load(tenant_id, new_load)
        except FaultInjected:
            self._rollback_partial(tenant_id)
            for index, sid, load in prior or ():
                self.placement.place(
                    Replica(tenant_id=tenant_id, index=index, load=load),
                    sid)
            raise
        seconds = time.perf_counter() - start
        if store is not None:
            store.log_open_through(self.placement._next_server_id)
            store.log_update_load(tenant_id, new_load, chosen)
        if obs is not None:
            self._record_op(obs, "resize", seconds,
                            before, tenant=tenant_id, load=new_load,
                            servers=list(chosen))
        return chosen

    # ------------------------------------------------------------------
    # Crash resume
    # ------------------------------------------------------------------
    def adopt(self, placement: PlacementState) -> None:
        """Resume from a recovered placement (crash restart).

        Replaces this *fresh* instance's empty placement with
        ``placement`` (typically
        :attr:`~repro.store.RecoveredState.placement`) and gives the
        algorithm a chance to rebuild its internal bookkeeping through
        the :meth:`_adopted` hook.  Algorithms whose decisions depend on
        state that is not reconstructible from the placement alone
        (CUBEFIT's cube geometry and in-flight multi-replicas) do not
        implement the hook and raise
        :class:`~repro.errors.ConfigurationError` — resume those runs
        with an adoptable algorithm instead.
        """
        if placement.gamma != self.gamma:
            raise ConfigurationError(
                f"cannot adopt placement with gamma={placement.gamma} "
                f"into {self.name!r} built for gamma={self.gamma}")
        if placement.capacity != self.placement.capacity:
            raise ConfigurationError(
                f"cannot adopt placement with capacity="
                f"{placement.capacity!r} into {self.name!r} built for "
                f"capacity={self.placement.capacity!r}")
        if self.placement.num_servers or self.placement.num_tenants:
            raise ConfigurationError(
                f"adopt requires a fresh {self.name!r} instance; this "
                f"one has already placed work")
        self.placement = placement
        self._adopted(placement)

    def _adopted(self, placement: PlacementState) -> None:
        """Rebuild algorithm-internal state after :meth:`adopt`.

        Default: refuse — only algorithms whose bookkeeping is a pure
        function of the placement can safely resume.
        """
        raise ConfigurationError(
            f"algorithm {self.name!r} cannot adopt a recovered "
            f"placement (its internal state is not reconstructible "
            f"from the placement alone)")

    # Convenience pass-throughs -------------------------------------------------
    @property
    def guaranteed_failures(self) -> int:
        """Simultaneous server failures this algorithm's packings are
        guaranteed to survive.  Default: ``gamma - 1`` (the problem's
        full budget); algorithms with a smaller reserve override it
        (RFI guarantees one failure regardless of gamma)."""
        return self.gamma - 1

    @property
    def num_servers(self) -> int:
        return self.placement.num_servers

    def describe(self) -> Dict[str, object]:
        """Summary statistics for reports."""
        return {
            "algorithm": self.name,
            "gamma": self.gamma,
            "servers": self.placement.num_servers,
            "tenants": self.placement.num_tenants,
            "utilization": self.placement.utilization(),
            "placement_seconds": self.placement_seconds,
        }


class ServerIndex:
    """Numpy-backed availability/level index over a placement.

    Tracks, per server id, the bin *level* and the *robust availability*::

        avail = capacity - level - worst_failover_load(failures)

    ``avail >= r`` is a necessary condition for placing a replica of load
    ``r`` on the server without violating the ``failures``-failure reserve
    (necessary, not sufficient, because placing the replica can also raise
    the worst-case failover load through new shared partners).  The index
    is used to prune candidates; callers re-verify exactly.

    The index subscribes to the placement's invalidation stream
    (:meth:`PlacementState.dirty_tracker`) and refreshes exactly the
    servers affected since the last query, so algorithms no longer need
    to hand-maintain refresh calls after every mutation.  :meth:`track`
    is still required when a server the algorithm wants indexed is
    opened (eligibility is an algorithm-level notion).
    """

    _GROW = 1024

    #: Lazy extraction budget of :meth:`iter_candidates`: after this
    #: many argmax pulls the remainder is sorted in one pass (a consumer
    #: that scans this deep is probably consuming everything).
    _LAZY_PULLS = 12
    #: Below this many survivors the full sort is cheaper than pulling.
    _LAZY_CUTOFF = 4

    def __init__(self, placement: PlacementState, failures: int) -> None:
        self.placement = placement
        self.failures = failures
        self._level = np.zeros(self._GROW, dtype=np.float64)
        self._avail = np.full(self._GROW, -np.inf, dtype=np.float64)
        #: Servers eligible for candidate queries (CUBEFIT maturity).
        self._eligible = np.zeros(self._GROW, dtype=bool)
        self._size = 0
        self._tracker = placement.dirty_tracker()

    def _ensure(self, server_id: int) -> None:
        while server_id >= len(self._level):
            for attr in ("_level", "_avail", "_eligible"):
                arr = getattr(self, attr)
                if arr.dtype == bool:
                    pad = np.zeros(self._GROW, dtype=bool)
                elif attr == "_avail":
                    pad = np.full(self._GROW, -np.inf, dtype=np.float64)
                else:
                    pad = np.zeros(self._GROW, dtype=np.float64)
                setattr(self, attr, np.concatenate([arr, pad]))
        self._size = max(self._size, server_id + 1)

    def track(self, server_id: int, eligible: bool = True) -> None:
        """Start indexing ``server_id`` (must exist in the placement)."""
        self._ensure(server_id)
        self._eligible[server_id] = eligible
        self.refresh([server_id])

    def set_eligible(self, server_id: int, eligible: bool) -> None:
        self._ensure(server_id)
        if bool(self._eligible[server_id]) == eligible:
            return
        self._eligible[server_id] = eligible
        self.refresh([server_id])

    def refresh(self, server_ids: Iterable[int]) -> None:
        """Recompute level/availability for the given servers.

        Ineligible servers keep ``avail = -inf`` — the sentinel doubles
        as the eligibility filter in the candidate queries, which lets
        the hot query path test a single float array.  Their true
        availability is recomputed the moment :meth:`set_eligible`
        promotes them.
        """
        placement = self.placement
        servers = placement._servers
        wfl = placement.worst_failover_load
        failures = self.failures
        eligible = self._eligible
        size = self._size
        for sid in server_ids:
            if sid >= size:
                continue
            server = servers[sid]
            self._level[sid] = server.load
            if eligible[sid]:
                self._avail[sid] = (server.capacity - server.load
                                    - wfl(sid, failures))
            else:
                self._avail[sid] = -np.inf

    def sync(self) -> None:
        """Refresh every server mutated since the last query.

        Drains the placement's dirty tracker; cost is O(affected
        *eligible* servers).  Dirty servers that are currently
        ineligible are skipped — candidate queries cannot return them
        (their ``avail`` sentinel is ``-inf``), and their availability
        is recomputed from the placement if they ever become eligible —
        under CUBEFIT most mutations land on immature bins, so the skip
        saves the bulk of the failover-load recomputation.  Called
        automatically by the candidate queries, :meth:`level` and
        :meth:`avail`.
        """
        dirty = self._tracker.drain()
        if not dirty:
            return
        placement = self.placement
        servers = placement._servers
        wfl = placement.worst_failover_load
        failures = self.failures
        eligible = self._eligible
        size = self._size
        level = self._level
        avail = self._avail
        for sid in dirty:
            if sid < size and eligible[sid]:
                server = servers[sid]
                level[sid] = server.load
                avail[sid] = (server.capacity - server.load
                              - wfl(sid, failures))

    def _arrays(self):
        """Post-sync ``(level, avail, size)`` views."""
        if self._tracker._dirty:
            self.sync()
        return self._level, self._avail, self._size

    @staticmethod
    def _survivors(level, avail, size, min_avail, max_level, exclude):
        """Ascending ids passing the avail/level filters, or None."""
        # Ineligible servers sit at avail == -inf (see refresh), so one
        # float compare is both the availability and eligibility filter.
        mask = avail[:size] >= min_avail - LOAD_EPS
        if max_level is not None:
            mask &= level[:size] <= max_level + LOAD_EPS
        ids = np.nonzero(mask)[0]
        if exclude and len(ids):
            for excluded_id in exclude:
                ids = ids[ids != excluded_id]
        return ids

    def iter_candidates(self, min_avail: float,
                        max_level: Optional[float] = None,
                        exclude: Iterable[int] = ()) -> Iterable[int]:
        """Eligible servers with ``avail >= min_avail``, fullest first,
        lazily.

        ``max_level`` additionally caps the current level (used for
        RFI's interleaving threshold ``mu``).  ``exclude`` removes
        specific ids (e.g. servers already hosting a sibling replica);
        any container is accepted — list, tuple, set — and iterated
        once per call (the typical exclusion is the ``gamma - 1``
        sibling servers, so a per-id vectorized compare beats
        ``np.isin``'s sort).

        First-feasible consumers (Best Fit scans, CUBEFIT's mature-bin
        search) typically accept one of the first few candidates; this
        pulls them by repeated masked argmax and only sorts the
        remainder if a scan runs deep, so the common probe never pays
        the full fullest-first sort of a large survivor set.  Equal
        levels go smallest id first either way: ``argmax`` returns the
        *first* maximum, and over ascending ids that is exactly the
        stable sort's tie-break.

        The sync here is *eager*.  A deferred-refresh variant — mask
        over stale availabilities, full refresh only when the scan
        reaches a dirty server — was prototyped and measured a net
        loss: fullest-first scans probe exactly the servers the
        previous placement just dirtied (they are the fullest), so ~97%
        of the deferred refreshes happened anyway, with the per-server
        call and generator overhead on top.
        """
        level, avail, size = self._arrays()
        if size == 0:
            return iter(())
        ids = self._survivors(level, avail, size, min_avail, max_level,
                              exclude)
        n = len(ids)
        if n == 0:
            return iter(())
        if n == 1:
            return iter((int(ids[0]),))
        if n <= self._LAZY_CUTOFF:
            order = np.argsort(-level[ids], kind="stable")
            return iter(ids[order].tolist())
        return self._pull_candidates(ids, level[ids])

    def _pull_candidates(self, ids, keys) -> Iterator[int]:
        for _ in range(self._LAZY_PULLS):
            best = int(keys.argmax())
            if keys[best] == -np.inf:
                return
            yield int(ids[best])
            keys[best] = -np.inf
        remaining = np.nonzero(keys != -np.inf)[0]
        if len(remaining) == 0:
            return
        order = np.argsort(-keys[remaining], kind="stable")
        for position in remaining[order].tolist():
            yield int(ids[position])

    def candidates_by_id(self, min_avail: float,
                         exclude: Iterable[int] = ()) -> List[int]:
        """The ids :meth:`iter_candidates` filters, in ascending id
        order (First Fit's scan order), without the fullest-first
        sort."""
        level, avail, size = self._arrays()
        if size == 0:
            return []
        ids = self._survivors(level, avail, size, min_avail, None,
                              exclude)
        return ids.tolist()

    def level(self, server_id: int) -> float:
        self.sync()
        if server_id < self._size and not self._eligible[server_id]:
            # Ineligible servers are skipped by sync; recompute on read.
            self._level[server_id] = \
                self.placement._servers[server_id].load
        return float(self._level[server_id])

    def avail(self, server_id: int) -> float:
        """True slack of ``server_id`` (even while ineligible — the
        internal ``-inf`` eligibility sentinel is never returned)."""
        self.sync()
        if server_id < self._size and not self._eligible[server_id]:
            server = self.placement._servers[server_id]
            return float(server.capacity - server.load
                         - self.placement.worst_failover_load(
                             server_id, self.failures))
        return float(self._avail[server_id])

    def select(self, replica_load: float, chosen: Sequence[int], *,
               min_avail: float, max_level: Optional[float] = None,
               exclude: Iterable[int] = (), future_siblings: int = 0,
               obs=None, accept=None) -> Optional[int]:
        """First candidate (fullest-first) that passes the robustness
        probe, or None.

        This is the shared candidate-scan kernel of Best Fit, RFI and
        CUBEFIT's mature-bin search: :meth:`iter_candidates` fused with
        :func:`robust_after_placement`.  ``accept`` is an optional
        per-candidate prefilter (CUBEFIT's tag checks) applied before
        any feasibility work.
        """
        placement = self.placement
        failures = self.failures
        for sid in self.iter_candidates(min_avail, max_level, exclude):
            if accept is not None and not accept(sid):
                continue
            if robust_after_placement(placement, sid, replica_load,
                                      chosen, failures, future_siblings,
                                      obs=obs):
                return sid
        return None


def robust_after_placement(placement: PlacementState, server_id: int,
                           replica_load: float, chosen: Sequence[int],
                           failures: int, future_siblings: int = 0,
                           obs=None) -> bool:
    """Exact feasibility of placing a replica on ``server_id``.

    Checks that, with the replica added and shared loads bumped against
    the sibling servers in ``chosen``:

    * ``server_id`` keeps ``load + worst_failover <= capacity``,
    * every server in ``chosen`` keeps the same property (their shared
      load against ``server_id`` grows by ``replica_load``).

    ``future_siblings`` anticipates that this tenant still has that many
    replicas to place, each of which will add a shared load of
    ``replica_load`` against ``server_id`` and every server in ``chosen``
    — possibly on *fresh* servers, in which case no later feasibility
    check would guard these servers.  Algorithms whose fallback opens a
    new server (RFI, the naive baselines) must pass it; CUBEFIT's first
    stage rolls the whole tenant back on any failure, so its final check
    sees all shares and it may pass 0.

    Each server's top-f sum comes from
    :func:`~repro.core.placement.worst_shared_sum`, which reads the live
    shared-load mapping in place, so a probe builds no dict or list.
    ``obs`` (a :class:`~repro.obs.MetricsRegistry`) counts every call
    in the ``feasibility.exact`` counter.
    """
    if faults.FAILPOINTS._active:
        # Inlined emptiness guard: this is the hottest seam in the
        # package (one hit per candidate probe), so the disabled cost
        # must stay at two attribute loads and a truth test.
        faults.FAILPOINTS.fire("algo.feasibility")
    if obs is not None:
        obs.counter("feasibility.exact").inc()
    server = placement.server(server_id)
    worst = worst_shared_sum(placement, server_id, failures, chosen,
                             replica_load, future_siblings)
    empty_after = server.capacity - server.load - replica_load
    if empty_after + LOAD_EPS < worst:
        return False
    for c in chosen:
        other = placement.server(c)
        worst_c = worst_shared_sum(placement, c, failures, (server_id,),
                                   replica_load, future_siblings)
        if other.capacity - other.load + LOAD_EPS < worst_c:
            return False
    return True


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Type[OnlinePlacementAlgorithm]] = {}


def register(cls: Type[OnlinePlacementAlgorithm]
             ) -> Type[OnlinePlacementAlgorithm]:
    """Class decorator adding the algorithm to the global registry."""
    if not cls.name or cls.name == "abstract":
        raise ConfigurationError(
            f"{cls.__name__} must define a unique 'name'")
    if cls.name in _REGISTRY:
        raise ConfigurationError(
            f"duplicate algorithm name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def available_algorithms() -> List[str]:
    """Names of all registered algorithms."""
    return sorted(_REGISTRY)


def make_algorithm(name: str, gamma: int,
                   **kwargs) -> OnlinePlacementAlgorithm:
    """Instantiate a registered algorithm by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; known: {available_algorithms()}"
        ) from None
    return cls(gamma=gamma, **kwargs)
