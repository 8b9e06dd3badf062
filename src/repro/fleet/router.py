"""Deterministic tenant-to-shard routing with spillover.

The :class:`PlacementRouter` decides which shard admits each tenant.
Its decisions depend only on its own bookkeeping — the sum of loads it
has routed to each shard — never on live shard state, which is what
makes fleet runs reproducible: the same admission stream routes the
same way whether shards execute serially, in parallel worker
processes, or have crashed and recovered in between.

Three policies, all deterministic:

``hash``
    ``splitmix64(tenant_id ^ seed) mod shards``.  Stateless and
    history-free: a tenant routes to the same shard no matter what was
    admitted before it.
``least-loaded``
    The shard with the smallest estimated total load; ties break to
    the lowest shard id.
``headroom``
    The shard with the largest estimated *headroom* — its load budget
    (``max_servers * capacity``) minus its estimated load.  Requires a
    budget; falls back to least-loaded on unbounded shards.

:meth:`assign` routes and records one tenant.  :meth:`stream` assigns
a lazy iterable tenant by tenant and yields per-shard groups every
``batch_size`` arrivals, so an arbitrarily long admission stream never
has more than one window resident in the router; since each decision
reads only the estimates, the window size changes when groups are
handed over, never where a tenant goes.

Spillover (:meth:`spill_order`) is the router's answer to a shard that
*refused* a placement despite the estimate: siblings are offered the
tenant in deterministic ring order starting after the refusing shard.

Failpoints: ``fleet.route`` fires before a routing decision commits,
``fleet.spill`` before a refused tenant is offered to its first
sibling (see :mod:`repro.faults`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from .. import faults
from ..core.tenant import Tenant
from ..errors import ConfigurationError

#: Routing policies, in documentation order.
POLICIES = ("hash", "least-loaded", "headroom")

_MASK64 = (1 << 64) - 1


def stable_hash(value: int, seed: int = 0) -> int:
    """SplitMix64 of ``value ^ seed`` — stable across runs and hosts.

    Python's builtin ``hash`` is salted per process for strings and
    must not leak into routing; this mix is the fleet's only hash.
    """
    z = ((value ^ seed) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class PlacementRouter:
    """Routes tenants to shards by a deterministic policy.

    The router never touches a shard: it estimates.  Estimated shard
    load is the sum of admitted tenant loads (single-copy: replication
    multiplies every shard's load equally, so gamma cancels out of
    every comparison).  :meth:`reconcile` rebuilds an estimate from a
    shard's recovered truth after a crash.
    """

    def __init__(self, num_shards: int, policy: str = "hash",
                 seed: int = 0, batch_size: int = 64,
                 load_budget: Optional[float] = None) -> None:
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}")
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; known: {POLICIES}")
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}")
        if policy == "headroom" and load_budget is None:
            raise ConfigurationError(
                "the headroom policy needs load_budget "
                "(max_servers * capacity per shard)")
        if load_budget is not None and load_budget <= 0:
            raise ConfigurationError(
                f"load_budget must be > 0, got {load_budget}")
        self.num_shards = num_shards
        self.policy = policy
        self.seed = seed
        self.batch_size = batch_size
        self.load_budget = load_budget
        #: Estimated total load routed to each shard.
        self.loads: List[float] = [0.0] * num_shards
        #: Tenants routed to each shard (estimate, like loads).
        self.tenants: List[int] = [0] * num_shards
        #: Shards currently marked down (crashed, not yet recovered).
        self.down: set = set()
        self.routed = 0
        self.spilled = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _candidates(self) -> List[int]:
        up = [s for s in range(self.num_shards) if s not in self.down]
        if not up:
            raise ConfigurationError("every shard is down")
        return up

    def route(self, tenant: Tenant) -> int:
        """Pick the target shard for ``tenant`` (no bookkeeping)."""
        if faults.active():
            faults.fire("fleet.route")
        up = self._candidates()
        if self.policy == "hash":
            target = stable_hash(tenant.tenant_id,
                                 self.seed) % self.num_shards
            if target in self.down:
                # Deterministic detour: next live shard on the ring.
                target = min(up, key=lambda s:
                             (s - target) % self.num_shards)
            return target
        if self.policy == "least-loaded":
            return min(up, key=lambda s: (self.loads[s], s))
        # headroom: most budget left; ties to the lowest shard id.
        return min(up, key=lambda s:
                   (-(self.load_budget - self.loads[s]), s))

    def assign(self, tenant: Tenant) -> int:
        """Route ``tenant`` and record it against the chosen shard."""
        target = self.route(tenant)
        self.record_place(target, tenant.load)
        self.routed += 1
        return target

    def spill_order(self, tenant: Tenant, refused: int) -> Iterator[int]:
        """Sibling shards to offer ``tenant`` after ``refused`` balked.

        Ring order starting after the refusing shard — deterministic,
        independent of load estimates (the estimates were just proven
        wrong about ``refused``).  Fires ``fleet.spill`` once, before
        the first sibling is yielded.
        """
        if faults.active():
            faults.fire("fleet.spill")
        self.spilled += 1
        for step in range(1, self.num_shards):
            sibling = (refused + step) % self.num_shards
            if sibling not in self.down:
                yield sibling

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def record_place(self, shard: int, load: float) -> None:
        self.loads[shard] += load
        self.tenants[shard] += 1

    def record_remove(self, shard: int, load: float) -> None:
        self.loads[shard] = max(0.0, self.loads[shard] - load)
        self.tenants[shard] = max(0, self.tenants[shard] - 1)

    def record_move(self, source: int, target: int, load: float) -> None:
        self.record_remove(source, load)
        self.record_place(target, load)

    def mark_down(self, shard: int) -> None:
        self._check_shard(shard)
        self.down.add(shard)

    def reconcile(self, shard: int, total_load: float,
                  tenants: int) -> None:
        """Replace the estimate for ``shard`` with recovered truth.

        Called when a crashed shard comes back: whatever the router
        believed about it is discarded in favour of the recovered
        placement's actual totals, and the shard is marked live.
        """
        self._check_shard(shard)
        self.loads[shard] = total_load
        self.tenants[shard] = tenants
        self.down.discard(shard)

    def _check_shard(self, shard: int) -> None:
        if not (0 <= shard < self.num_shards):
            raise ConfigurationError(
                f"shard must be in [0, {self.num_shards}), got {shard}")

    # ------------------------------------------------------------------
    # Windowed admission
    # ------------------------------------------------------------------
    def stream(self, tenants: Iterable[Tenant]
               ) -> Iterator[Dict[int, List[Tenant]]]:
        """Route a (possibly lazy) stream; yield per-shard groups.

        Tenants are drawn one at a time and assigned as they arrive;
        every ``batch_size`` arrivals the window's groups (shard id ->
        tenants, in admission order) are yielded, then the tail, if
        any.  A window is fully routed before it is yielded, so estimate
        updates the caller makes while consuming it (spill bookkeeping)
        only affect later windows.
        """
        groups: Dict[int, List[Tenant]] = {}
        for count, tenant in enumerate(tenants, 1):
            groups.setdefault(self.assign(tenant), []).append(tenant)
            if count % self.batch_size == 0:
                yield groups
                groups = {}
        if groups:
            yield groups

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "shards": self.num_shards,
            "seed": self.seed,
            "routed": self.routed,
            "spilled": self.spilled,
            "down": sorted(self.down),
            "estimated_loads": [round(x, 9) for x in self.loads],
            "estimated_tenants": list(self.tenants),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlacementRouter(shards={self.num_shards}, "
                f"policy={self.policy!r}, routed={self.routed})")
