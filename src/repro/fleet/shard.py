"""One fleet shard: a durable placement controller in a directory.

A :class:`ShardController` is the unit the fleet partitions the server
estate into — a full :class:`~repro.algorithms.naive.RobustBestFit`
controller bound to its own :class:`~repro.store.DurableStore` (WAL +
checkpoint lineage) under ``<fleet root>/shard-NNN/``.  The store layer
is reused unchanged: recovery, compaction, and the durability contract
("ack implies the record is fsynced") are exactly those of a
single-controller deployment; the fleet merely runs N of them.

Shards add one new refusal mode on top of the single-controller
contract: a ``max_servers`` budget.  A placement that would have to
open servers beyond the budget is undone in place and surfaces as a
typed :class:`~repro.errors.ShardSaturatedError` — the router's
spillover signal.  The undo is itself WAL-logged (a ``place`` followed
by a ``remove``), so a refused attempt replays to a no-op on recovery.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algorithms.naive import RobustBestFit
from ..core.tenant import Tenant
from ..core.validation import AuditReport, audit
from ..errors import ConfigurationError, ShardSaturatedError
from ..store import open_durable
from ..store.wal import FSYNC_ALWAYS

PathLike = Union[str, Path]

#: Directory-name template for shard ``i`` under a fleet root.
SHARD_DIRNAME = "shard-{:03d}"


def shard_directory(root: PathLike, shard_id: int) -> Path:
    """The store directory of shard ``shard_id`` under ``root``."""
    return Path(root) / SHARD_DIRNAME.format(shard_id)


class ShardController:
    """A durable placement controller owning one shard of the fleet.

    Parameters
    ----------
    shard_id:
        Position of this shard in the fleet (``0..num_shards-1``).
    directory:
        Store root of this shard (``meta.json``, ``checkpoint.json``,
        ``wal/``).  A directory with recoverable state produces a warm
        start: the placement is recovered, audited, and adopted; the
        recorded gamma/capacity/failure budget win over the arguments.
    max_servers:
        Server budget; ``None`` (default) means unbounded, matching a
        plain single controller bit-for-bit.
    """

    def __init__(self, shard_id: int, directory: PathLike,
                 gamma: int = 2, capacity: float = 1.0,
                 failures: Optional[int] = None,
                 max_servers: Optional[int] = None,
                 obs=None, fsync: str = FSYNC_ALWAYS,
                 segment_records: int = 512) -> None:
        if shard_id < 0:
            raise ConfigurationError(
                f"shard_id must be >= 0, got {shard_id}")
        if max_servers is not None and max_servers < 1:
            raise ConfigurationError(
                f"max_servers must be >= 1, got {max_servers}")
        self.shard_id = shard_id
        self.directory = Path(directory)
        self.max_servers = max_servers
        self.algorithm, self.recovered_state = open_durable(
            self.directory,
            lambda: RobustBestFit(gamma=gamma, failures=failures,
                                  capacity=capacity),
            fsync=fsync, segment_records=segment_records, obs=obs)
        self.store = self.algorithm.store
        self._closed = False
        self._opened_at = time.monotonic()

    # ------------------------------------------------------------------
    # Placement surface
    # ------------------------------------------------------------------
    @property
    def placement(self):
        return self.algorithm.placement

    @property
    def total_load(self) -> float:
        return self.placement.total_load()

    def place(self, tenant: Tenant) -> Tuple[int, ...]:
        """Place ``tenant``; refuse (typed) when over the budget.

        The budget check is *post hoc*: the placement runs, and if it
        had to open servers beyond ``max_servers`` it is removed again
        and :class:`~repro.errors.ShardSaturatedError` raised.  Empty
        servers opened by the refused attempt stay in the placement
        (they are reused by later placements, exactly like any other
        empty server) but are only WAL-logged once a placement that
        uses them commits.
        """
        before = self.placement.num_servers
        servers = self.algorithm.place(tenant)
        opened = self.placement.num_servers - before
        if (self.max_servers is not None and opened > 0
                and self.placement.num_servers > self.max_servers):
            self.algorithm.remove(tenant.tenant_id)
            raise ShardSaturatedError(
                f"shard {self.shard_id}: placing tenant "
                f"{tenant.tenant_id} (load {tenant.load}) needs "
                f"{self.placement.num_servers} servers, budget is "
                f"{self.max_servers}", shard_id=self.shard_id)
        return servers

    def place_batch(self, tenants: Sequence[Tenant]
                    ) -> List[Tuple[Tenant, Optional[Tuple[int, ...]]]]:
        """Admit a chunk of tenants, one :meth:`place` call each.

        Per-tenant semantics are exactly those of :meth:`place`,
        including the post-hoc budget rollback.  Returns
        ``(tenant, servers)`` pairs in admission order; a budget
        refusal yields ``(tenant, None)`` instead of raising, so one
        refusal does not abort the rest of the chunk.
        """
        outcomes: List[Tuple[Tenant, Optional[Tuple[int, ...]]]] = []
        for tenant in tenants:
            try:
                outcomes.append((tenant, self.place(tenant)))
            except ShardSaturatedError:
                outcomes.append((tenant, None))
        return outcomes

    def remove(self, tenant_id: int) -> None:
        self.algorithm.remove(tenant_id)

    def update_load(self, tenant_id: int, load: float) -> Tuple[int, ...]:
        return self.algorithm.update_load(tenant_id, load)

    def has_tenant(self, tenant_id: int) -> bool:
        return bool(self.placement.tenant_servers(tenant_id))

    def tenant_servers(self, tenant_id: int) -> Dict[int, int]:
        return self.placement.tenant_servers(tenant_id)

    # ------------------------------------------------------------------
    # Durability + introspection
    # ------------------------------------------------------------------
    def audit(self) -> AuditReport:
        return audit(self.placement, failures=self.algorithm.failures)

    def checkpoint_and_compact(self):
        return self.store.checkpoint_and_compact(self.placement)

    def status(self) -> Dict[str, object]:
        """Introspection snapshot (all values read live, no mutation)."""
        placement = self.placement
        return {
            "shard": self.shard_id,
            "directory": str(self.directory),
            "tenants": placement.num_tenants,
            "servers": placement.num_servers,
            "nonempty_servers": placement.num_nonempty_servers,
            "total_load": placement.total_load(),
            "utilization": placement.utilization(),
            "max_servers": self.max_servers,
            "gamma": placement.gamma,
            "wal_next_seq": self.store.wal.next_seq,
            "checkpoint_exists": self.store.checkpoint_path.exists(),
        }

    def crash(self) -> None:
        """Simulate kill -9: abandon the controller, no shutdown.

        No ``close()``, no flush, no final checkpoint — exactly the
        state a SIGKILL leaves behind.  Under the default ``always``
        fsync policy every acked record is already on disk, so a fresh
        :class:`ShardController` on the same directory recovers every
        acked placement replica-for-replica.
        """
        self.store = None
        self.algorithm = None
        self._closed = True

    def close(self) -> None:
        if not self._closed and self.store is not None:
            self.store.close()
            self._closed = True

    def __enter__(self) -> "ShardController":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardController(shard={self.shard_id}, "
                f"dir={str(self.directory)!r})")
