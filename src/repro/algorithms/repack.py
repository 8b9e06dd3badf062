"""Repacking: migrate tenants off under-utilized servers.

Churn fragments any online packing (see the E11 study): departures
leave servers half-empty and the fleet drifts above what a fresh
packing of the surviving tenants would need.  The repacker performs the
classic consolidation maintenance pass:

1. rank non-empty servers by *drainability* — total hosted load, lowest
   first (cheapest to empty);
2. for each candidate server, try to re-home every tenant with a
   replica on it onto the remaining servers (Best Fit with the full
   robustness check, never onto another drain candidate);
3. commit the drain only if every tenant fit — otherwise roll the
   server's tenants back where they were;
4. stop when a server fails to drain (further candidates hold more
   load) or a migration budget is exhausted.

The plan reports the migrations (tenant, from, to) so an operator can
price the data movement; robustness holds at *every intermediate step*,
not just at the end — a tenant is moved atomically (remove + re-place
via the algorithm's own checked path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..core.placement import PlacementState
from ..core.tenant import Tenant
from .base import robust_after_placement


@dataclass(frozen=True)
class TenantMigration:
    """One tenant moved during repacking."""

    tenant_id: int
    load: float
    sources: Tuple[int, ...]
    targets: Tuple[int, ...]


@dataclass
class RepackPlan:
    """Outcome of a repacking pass."""

    drained_servers: List[int] = field(default_factory=list)
    migrations: List[TenantMigration] = field(default_factory=list)
    servers_before: int = 0
    servers_after: int = 0

    @property
    def servers_saved(self) -> int:
        return self.servers_before - self.servers_after

    @property
    def load_migrated(self) -> float:
        return sum(m.load for m in self.migrations)

    def __str__(self) -> str:
        return (f"RepackPlan(drained={self.drained_servers}, "
                f"{len(self.migrations)} tenants / "
                f"{self.load_migrated:.2f} load migrated, "
                f"{self.servers_before} -> {self.servers_after} servers)")


class Repacker:
    """Drains under-utilized servers from an existing placement.

    Pass ``obs`` (a :class:`~repro.obs.MetricsRegistry`) to emit one
    ``repack_move`` journal event per migrated tenant plus migration
    counters, migrated-load histograms, and a ``span.repack.seconds``
    timing of the whole pass.
    """

    def __init__(self, placement: PlacementState,
                 failures: Optional[int] = None,
                 obs=None) -> None:
        self.placement = placement
        self.failures = placement.gamma - 1 if failures is None \
            else failures
        self._obs = obs

    def repack(self, max_migrations: Optional[int] = None,
               max_drains: Optional[int] = None) -> RepackPlan:
        """Run the maintenance pass; mutates the placement.

        Candidates are visited least-loaded first; an undrainable
        candidate (its tenants cannot all be re-homed) is skipped, not
        fatal — a heavier server with a luckier tenant mix may still
        drain.  Each successful drain changes the landscape, so the
        candidate order is recomputed after every attempt round.
        """
        obs = self._obs
        if obs is None:
            return self._repack(max_migrations, max_drains, None)
        from ..obs import span
        with span("repack", registry=obs):
            return self._repack(max_migrations, max_drains, obs)

    def _repack(self, max_migrations: Optional[int],
                max_drains: Optional[int], obs) -> RepackPlan:
        placement = self.placement
        plan = RepackPlan(
            servers_before=placement.num_nonempty_servers)
        budget = max_migrations if max_migrations is not None \
            else float("inf")
        drains = max_drains if max_drains is not None else float("inf")
        skipped: Set[int] = set()
        while drains > 0 and budget > 0:
            candidate = self._next_candidate(plan.drained_servers,
                                             skipped)
            if candidate is None:
                break
            already_moved = len(plan.migrations)
            moved = self._drain(candidate, budget, plan)
            if moved is None:
                skipped.add(candidate)
                continue
            budget -= moved
            plan.drained_servers.append(candidate)
            drains -= 1
            if obs is not None:
                obs.counter("repack.drained_servers").inc()
                for migration in plan.migrations[already_moved:]:
                    obs.counter("repack.migrations").inc()
                    obs.histogram("repack.migrated_load").observe(
                        migration.load)
                    obs.emit("repack_move",
                             tenant=migration.tenant_id,
                             load=migration.load,
                             sources=list(migration.sources),
                             targets=list(migration.targets))
        plan.servers_after = placement.num_nonempty_servers
        return plan

    # ------------------------------------------------------------------
    def _next_candidate(self, drained: Sequence[int],
                        skipped: Set[int]) -> Optional[int]:
        """Least-loaded non-empty server not yet drained or skipped."""
        candidates = [s for s in self.placement
                      if len(s) > 0 and s.server_id not in drained
                      and s.server_id not in skipped]
        if len(candidates) <= 1:
            return None
        return min(candidates,
                   key=lambda s: (s.load, s.server_id)).server_id

    def _drain(self, server_id: int, budget: float,
               plan: RepackPlan) -> Optional[int]:
        """Move every tenant off ``server_id``; None if impossible."""
        placement = self.placement
        tenant_ids = sorted(
            {tid for tid, _ in placement.server(server_id).replicas},
            key=lambda tid: -placement.tenant_load(tid))
        if len(tenant_ids) > budget:
            return None
        undo: List[Tuple[Tenant, List[int]]] = []
        moved: List[TenantMigration] = []
        for tenant_id in tenant_ids:
            old_homes = [placement.tenant_servers(tenant_id)[j]
                         for j in range(placement.gamma)]
            load = placement.tenant_load(tenant_id)
            tenant = Tenant(tenant_id, load)
            placement.remove_tenant(tenant_id)
            targets = self._place_checked(tenant, forbidden={server_id})
            if targets is None:
                placement.place_tenant(tenant, old_homes)
                for undo_tenant, undo_homes in reversed(undo):
                    placement.remove_tenant(undo_tenant.tenant_id)
                    placement.place_tenant(undo_tenant, undo_homes)
                return None
            undo.append((tenant, old_homes))
            moved.append(TenantMigration(
                tenant_id=tenant_id, load=load,
                sources=tuple(old_homes), targets=tuple(targets)))
        plan.migrations.extend(moved)
        return len(moved)

    def _place_checked(self, tenant: Tenant,
                       forbidden: Set[int]) -> Optional[List[int]]:
        """Place all replicas Best-Fit with exact robustness checks.

        Replicas are placed *one by one* so that each subsequent check
        sees the previously placed siblings' actual loads; on failure
        everything placed so far is rolled back and None returned.
        """
        placement = self.placement
        replicas = tenant.replicas(placement.gamma)
        chosen: List[int] = []
        for replica in replicas:
            # Skip bins tagged immature: CUBEFIT's cube machinery still
            # owns their unfilled slots and will fill them without
            # re-checking (see repro.core.recovery for the same rule).
            candidates = sorted(
                (s for s in placement
                 if s.server_id not in forbidden
                 and s.server_id not in chosen
                 and len(s) > 0
                 and s.tags.get("mature", True)
                 and s.capacity - s.load >= replica.load - 1e-12),
                key=lambda s: (-s.load, s.server_id))
            target = None
            for server in candidates:
                if robust_after_placement(
                        placement, server.server_id, replica.load,
                        chosen, failures=self.failures, obs=self._obs):
                    target = server.server_id
                    break
            if target is None:
                for placed, sid in zip(replicas, chosen):
                    placement.unplace(placed.key, sid)
                return None
            placement.place(replica, target)
            chosen.append(target)
        return chosen
