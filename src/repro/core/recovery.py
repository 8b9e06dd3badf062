"""Re-replication after server failures.

The paper's model reserves capacity so that the SLA holds *while* some
servers are down; a real deployment then restores the replication
factor by re-creating the lost replicas on healthy servers (cf. AWS RDS
re-replication, the paper's footnote 1).  This module plans that
recovery:

* every replica hosted on a failed server is relocated to a healthy
  server that does not already host the tenant,
* each relocation must keep the packing robust for the configured
  failure budget (the same exact shared-load feasibility the placement
  algorithms use),
* relocations are ordered largest-replica-first (hardest to place) and
  target the fullest feasible server (Best Fit); new servers are opened
  only when no healthy server fits.

The planner mutates the placement it is given (the failed servers end
up empty) and returns a :class:`RecoveryPlan` describing every move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from ..algorithms.base import robust_after_placement
from ..errors import ConfigurationError
from .placement import PlacementState
from .tenant import Replica

ReplicaKey = Tuple[int, int]


@dataclass(frozen=True)
class ReplicaMove:
    """One relocated replica."""

    tenant_id: int
    replica_index: int
    load: float
    source: int
    target: int
    opened_new_server: bool


@dataclass
class RecoveryPlan:
    """Outcome of a recovery pass."""

    failed: Tuple[int, ...]
    moves: List[ReplicaMove] = field(default_factory=list)
    servers_opened: int = 0

    @property
    def replicas_relocated(self) -> int:
        return len(self.moves)

    @property
    def load_relocated(self) -> float:
        return sum(m.load for m in self.moves)

    def __str__(self) -> str:
        return (f"RecoveryPlan(failed={list(self.failed)}, "
                f"relocated={self.replicas_relocated} replicas / "
                f"{self.load_relocated:.3f} load, "
                f"opened={self.servers_opened} new servers)")


class RecoveryPlanner:
    """Plans and applies re-replication after failures.

    Pass ``obs`` (a :class:`~repro.obs.MetricsRegistry`) to emit one
    ``recovery_move`` journal event per relocated replica plus move
    counters, relocated-load histograms, and a ``span.recovery.seconds``
    timing of the whole pass.
    """

    def __init__(self, placement: PlacementState,
                 failures: Optional[int] = None,
                 obs=None) -> None:
        self.placement = placement
        self.failures = placement.gamma - 1 if failures is None \
            else failures
        if self.failures < 0:
            raise ConfigurationError(
                f"failures must be non-negative, got {self.failures}")
        self._obs = obs

    def recover(self, failed: Iterable[int]) -> RecoveryPlan:
        """Relocate every replica off the ``failed`` servers.

        The failed servers stay in the placement (empty) so ids remain
        stable, but they receive no replicas; they are also excluded
        from the robustness consideration of *other* servers only in
        the sense that having no replicas they can no longer overload
        anyone.
        """
        obs = self._obs
        if obs is None:
            return self._recover(failed, None)
        from ..obs import span
        with span("recovery", registry=obs):
            return self._recover(failed, obs)

    def _recover(self, failed: Iterable[int], obs) -> RecoveryPlan:
        failed_set = self._validate(failed)
        plan = RecoveryPlan(failed=tuple(sorted(failed_set)))
        victims = self._victims(failed_set)
        # Largest replicas first: hardest to re-fit, and placing them
        # early keeps Best Fit effective for the rest.
        victims.sort(key=lambda item: -item[1].load)
        for source, replica in victims:
            self.placement.unplace(replica.key, source)
            target, opened = self._find_target(replica, failed_set)
            self.placement.place(replica, target)
            plan.moves.append(ReplicaMove(
                tenant_id=replica.tenant_id,
                replica_index=replica.index,
                load=replica.load, source=source, target=target,
                opened_new_server=opened))
            if opened:
                plan.servers_opened += 1
            if obs is not None:
                obs.counter("recovery.moves").inc()
                obs.histogram("recovery.move_load").observe(replica.load)
                if opened:
                    obs.counter("recovery.servers_opened").inc()
                obs.emit("recovery_move", tenant=replica.tenant_id,
                         replica=replica.index, load=replica.load,
                         source=source, target=target, opened=opened)
        return plan

    # ------------------------------------------------------------------
    def _validate(self, failed: Iterable[int]) -> Set[int]:
        failed_set = set(failed)
        for sid in failed_set:
            self.placement.server(sid)  # raises on unknown ids
        return failed_set

    def _victims(self, failed_set: Set[int]
                 ) -> List[Tuple[int, Replica]]:
        victims: List[Tuple[int, Replica]] = []
        for sid in failed_set:
            server = self.placement.server(sid)
            victims.extend((sid, replica) for replica in list(server))
        return victims

    def _find_target(self, replica: Replica,
                     failed_set: Set[int]) -> Tuple[int, bool]:
        """Fullest healthy feasible server, or a fresh one.

        Servers carrying a ``mature: False`` tag are skipped: CUBEFIT's
        immature bins have unfilled slots whose space the cube
        machinery will hand to future second-stage tenants *without*
        re-checking — an outsider replica there would be invisible to
        that structural guarantee.  Mature bins (and servers of
        algorithms that do not tag) only ever admit exactly-checked
        placements, so they are fair game.
        """
        sibling_homes = set(
            self.placement.tenant_servers(replica.tenant_id).values())
        candidates = [
            s for s in self.placement.servers
            if s.server_id not in failed_set
            and s.server_id not in sibling_homes
            and s.tags.get("mature", True)
            and s.capacity - s.load >= replica.load - 1e-12
        ]
        candidates.sort(key=lambda s: (-s.load, s.server_id))
        chosen = sorted(sibling_homes)
        for server in candidates:
            if robust_after_placement(self.placement, server.server_id,
                                      replica.load, chosen,
                                      failures=self.failures,
                                      obs=self._obs):
                return server.server_id, False
        fresh = self.placement.open_server()
        return fresh.server_id, True
