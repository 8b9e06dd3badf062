"""The CUBEFIT online server-consolidation algorithm (Section III).

Placement of each arriving tenant proceeds in two stages:

**First stage (m-fit best fit).**  If *every* replica of the tenant
mature-fits some mature bin, the replicas are placed one by one, each in
the mature bin with the highest level (Best Fit) that m-fits it.  A bin
``B`` m-fits a replica when, after placing it, ``B``'s empty space still
covers the total shared load between ``B`` and any ``gamma - 1`` other
bins — i.e. the placement preserves the failover reserve.  Our check is
exact: it accounts for the new shared load the replica itself creates
against the sibling bins chosen so far, and re-verifies those siblings
(see DESIGN.md, "Interpretation notes").

**Second stage (cubes).**  Replicas of class ``tau`` are packed ``tau``
per bin into bins of ``tau + gamma - 1`` slots (``gamma - 1`` reserved
empty), using the cube addressing of :mod:`repro.core.cube` which
guarantees that any two bins share replicas of at most one tenant
(Lemma 1).  Tiny (class-``K``) replicas are first coalesced into
multi-replicas (:mod:`repro.core.multireplica`) and then routed through
the cube machinery of the policy's target class.

Together the stages yield Theorem 1: no bin is overloaded under the
simultaneous failure of any ``gamma - 1`` servers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import (OnlinePlacementAlgorithm, ServerIndex,
                               register, robust_after_placement)
from ..errors import ConfigurationError
from .classes import SizeClassifier
from .config import CubeFitConfig
from .cube import ClassCubes
from .multireplica import MultiReplica, MultiReplicaPolicy
from .tenant import Replica, Tenant

#: Server tag keys used by CUBEFIT.
TAG_CLASS = "class"
TAG_SLOTS_FILLED = "slots_filled"
TAG_MATURE = "mature"
TAG_ACTIVE_MULTI = "has_active_multireplica"
TAG_DOMAIN = "domain"


@register
class CubeFit(OnlinePlacementAlgorithm):
    """CUBEFIT with configurable ``K``, ``gamma`` and tiny-tenant policy.

    Examples
    --------
    >>> from repro.core.tenant import make_tenants
    >>> algo = CubeFit(gamma=2, num_classes=5)
    >>> _ = algo.consolidate(make_tenants([0.6, 0.3, 0.6, 0.78]))
    >>> algo.num_servers > 0
    True
    """

    name = "cubefit"

    def __init__(self, gamma: int = 2,
                 config: Optional[CubeFitConfig] = None,
                 capacity: float = 1.0,
                 **config_kwargs) -> None:
        if config is None:
            config = CubeFitConfig(gamma=gamma, capacity=capacity,
                                   **config_kwargs)
        elif config_kwargs:
            raise ConfigurationError(
                "pass either a CubeFitConfig or keyword overrides, not both")
        if config.gamma != gamma:
            raise ConfigurationError(
                f"gamma mismatch: argument {gamma} vs config {config.gamma}")
        super().__init__(gamma=config.gamma, capacity=config.capacity)
        self.config = config
        self.classifier = SizeClassifier(num_classes=config.num_classes,
                                         gamma=config.gamma)
        self._tiny_policy = MultiReplicaPolicy(config)
        self._cubes: Dict[int, ClassCubes] = {}
        self._active_multi: Optional[MultiReplica] = None
        self._multireplicas: List[MultiReplica] = []
        #: tenant id -> owning multi-replica (tiny tenants only).
        self._tenant_multi: Dict[int, MultiReplica] = {}
        #: tenant id -> (class, server ids in replica order) for tenants
        #: placed through the cube machinery (slot-recycling support).
        self._tenant_slots: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        #: class -> freed gamma-slot sets from departed cube tenants.
        #: A new same-class tenant may take over a departed tenant's
        #: exact slot set: the geometry is identical, so Lemma 1 is
        #: preserved by construction; admission is still verified with
        #: the exact robustness check (the first stage may have sold
        #: the freed space in the meantime).
        self._free_slots: Dict[int, List[Tuple[int, ...]]] = {}
        # Index over mature bins for first-stage candidate pruning; the
        # reserve budget is the full gamma-1 failures CUBEFIT guarantees.
        self._index = ServerIndex(self.placement, failures=config.gamma - 1)
        #: Counters for reporting / tests.
        self.stats = {
            "first_stage_tenants": 0,
            "cube_tenants": 0,
            "tiny_tenants": 0,
            "first_stage_rollbacks": 0,
            "multireplicas": 0,
        }

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def _place(self, tenant: Tenant) -> Tuple[int, ...]:
        replica_load = tenant.replica_load(self.gamma)
        tau = self.classifier.replica_class(replica_load)
        if self.config.first_stage:
            placed = self._try_first_stage(tenant, replica_load, tau)
            if placed is not None:
                self.stats["first_stage_tenants"] += 1
                return placed
        if tau == self.config.num_classes:
            self.stats["tiny_tenants"] += 1
            return self._place_tiny(tenant, replica_load)
        self.stats["cube_tenants"] += 1
        return self._place_cube(tenant, tau)

    # ------------------------------------------------------------------
    # First stage: m-fit Best Fit into mature bins
    # ------------------------------------------------------------------
    def _try_first_stage(self, tenant: Tenant, replica_load: float,
                         tau: int) -> Optional[Tuple[int, ...]]:
        """Attempt to m-fit every replica into mature bins.

        Returns the server ids on success; on failure rolls back any
        replicas placed so far and returns None (the paper's pseudocode
        does the same removal before falling through to stage two).
        """
        chosen: List[int] = []
        replicas = tenant.replicas(self.gamma)
        for replica in replicas:
            target = self._find_mature_fit(replica, tau, chosen)
            if target is None:
                for placed_replica, sid in zip(replicas, chosen):
                    self.placement.unplace(placed_replica.key, sid)
                if chosen:
                    self.stats["first_stage_rollbacks"] += 1
                return None
            self.placement.place(replica, target)
            chosen.append(target)
        return tuple(chosen)

    def _find_mature_fit(self, replica: Replica, tau: int,
                         chosen: Sequence[int]) -> Optional[int]:
        """Best Fit: fullest mature bin that exactly m-fits ``replica``."""
        server_of = self.placement._servers

        def accept(sid: int) -> bool:
            # Only strictly smaller replicas (larger class index) may
            # reuse a mature bin's leftover space.
            return tau > server_of[sid].tags[TAG_CLASS]

        return self._index.select(
            replica.load, chosen, min_avail=replica.load,
            exclude=chosen, obs=self._obs, accept=accept)

    # ------------------------------------------------------------------
    # Second stage: cube placement
    # ------------------------------------------------------------------
    def _cubes_for(self, tau: int) -> ClassCubes:
        cubes = self._cubes.get(tau)
        if cubes is None:
            cubes = ClassCubes(tau=tau, gamma=self.gamma)
            self._cubes[tau] = cubes
        return cubes

    def _resolve_bins(self, cubes: ClassCubes) -> List[int]:
        """Server ids for the counter's current addresses, opening bins
        lazily and tagging them with CUBEFIT metadata."""
        sids: List[int] = []
        for address in cubes.current_addresses():
            sid = cubes.bin_id(address)
            if sid is None:
                server = self.placement.open_server()
                server.tags[TAG_CLASS] = cubes.tau
                server.tags[TAG_SLOTS_FILLED] = 0
                server.tags[TAG_MATURE] = False
                server.tags[TAG_ACTIVE_MULTI] = False
                # The bin's cube group (replica j lives in group j).
                # Nothing enforces it; it stays a tag because
                # checkpoints encode it.
                server.tags[TAG_DOMAIN] = address.group
                cubes.assign_bin(address, server.server_id)
                self._index.track(server.server_id, eligible=False)
                sid = server.server_id
            sids.append(sid)
        return sids

    def _fill_slot(self, sid: int) -> None:
        tags = self.placement.server(sid).tags
        tags[TAG_SLOTS_FILLED] += 1
        self._maybe_mature(sid, tags)

    def _maybe_mature(self, sid: int, tags=None) -> None:
        """Promote a bin to mature when all data slots are occupied and
        no unsealed multi-replica can still grow inside it."""
        if tags is None:
            tags = self.placement.server(sid).tags
        mature = (tags[TAG_SLOTS_FILLED] >= tags[TAG_CLASS]
                  and not tags[TAG_ACTIVE_MULTI])
        tags[TAG_MATURE] = mature
        self._index.set_eligible(sid, mature)

    def _place_cube(self, tenant: Tenant, tau: int) -> Tuple[int, ...]:
        recycled = self._try_recycle(tenant, tau)
        if recycled is not None:
            return recycled
        cubes = self._cubes_for(tau)
        sids = self._resolve_bins(cubes)
        self.placement.place_tenant(tenant, sids)
        self._tenant_slots[tenant.tenant_id] = (tau, tuple(sids))
        for sid in sids:
            self._fill_slot(sid)
        cubes.advance()
        return tuple(sids)

    def _try_recycle(self, tenant: Tenant,
                     tau: int) -> Optional[Tuple[int, ...]]:
        """Reuse a departed same-class tenant's slot set if it still
        admits this tenant under the exact robustness check."""
        free = self._free_slots.get(tau)
        if not free:
            return None
        replicas = tenant.replicas(self.gamma)
        for position, sids in enumerate(free):
            placed = []
            ok = True
            for replica, sid in zip(replicas, sids):
                if not robust_after_placement(
                        self.placement, sid, replica.load,
                        chosen=list(placed), failures=self.gamma - 1,
                        obs=self._obs):
                    ok = False
                    break
                self.placement.place(replica, sid)
                placed.append(sid)
            if ok:
                free.pop(position)
                self._tenant_slots[tenant.tenant_id] = (tau, tuple(sids))
                self.stats["recycled_slots"] = \
                    self.stats.get("recycled_slots", 0) + 1
                return tuple(sids)
            for replica, sid in zip(replicas, placed):
                self.placement.unplace(replica.key, sid)
        return None

    # ------------------------------------------------------------------
    # Tiny tenants: multi-replicas
    # ------------------------------------------------------------------
    def _place_tiny(self, tenant: Tenant,
                    replica_load: float) -> Tuple[int, ...]:
        if not self._tiny_policy.fits(self._active_multi, replica_load):
            self._seal_active()
            self._active_multi = self._new_multireplica()
        active = self._active_multi
        active.add(tenant.tenant_id, replica_load)
        self._tenant_multi[tenant.tenant_id] = active
        self.placement.place_tenant(tenant, active.server_ids)
        return active.server_ids

    def _new_multireplica(self) -> MultiReplica:
        cubes = self._cubes_for(self._tiny_policy.target_class)
        sids = self._resolve_bins(cubes)
        for sid in sids:
            tags = self.placement.server(sid).tags
            tags[TAG_ACTIVE_MULTI] = True
            tags[TAG_SLOTS_FILLED] += 1
            self._maybe_mature(sid)
        cubes.advance()
        multi = MultiReplica(server_ids=tuple(sids))
        self._multireplicas.append(multi)
        self.stats["multireplicas"] += 1
        return multi

    def _seal_active(self) -> None:
        active = self._active_multi
        if active is None:
            return
        active.sealed = True
        for sid in active.server_ids:
            tags = self.placement.server(sid).tags
            tags[TAG_ACTIVE_MULTI] = False
            self._maybe_mature(sid)
        self._active_multi = None

    # ------------------------------------------------------------------
    # Departures (dynamic tenancy)
    # ------------------------------------------------------------------
    def _remove(self, tenant_id: int) -> None:
        """Handle a tenant's departure.

        Beyond the base-class removal (which is already robustness-
        preserving), a tiny tenant's share is subtracted from its
        multi-replica so that, if the multi-replica is still active,
        future tiny arrivals can reclaim the space.  Cube slot counts
        are deliberately *not* decremented: the counter machinery never
        revisits a slot, so freed slot space is reused through the
        first stage's exact m-fit check instead (leaving a once-mature
        bin mature is safe — every m-fit admission re-verifies the
        actual loads).
        """
        replica_load = self.placement.tenant_load(tenant_id) / self.gamma
        super()._remove(tenant_id)
        multi = self._tenant_multi.pop(tenant_id, None)
        if multi is not None:
            multi.remove(tenant_id, replica_load)
        slot_record = self._tenant_slots.pop(tenant_id, None)
        if slot_record is not None:
            tau, sids = slot_record
            self._free_slots.setdefault(tau, []).append(sids)
        self.stats["departures"] = self.stats.get("departures", 0) + 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update({
            "K": self.config.num_classes,
            "tiny_policy": self.config.tiny_policy,
            "stats": dict(self.stats),
        })
        return info
