"""The fleet: N durable shards behind one router.

:class:`PlacementFleet` is the stateful, serial coordinator — the
object the chaos drill, the rebalancer, and interactive use drive.
The soaks in :mod:`repro.fleet.soak` drive shard controllers directly
instead: the streaming soak keeps them in-process, and the
``jobs > 1`` soak runs each shard in a :func:`repro.par.pmap` worker
and opens a live fleet only for its serial spill pass.

Layout on disk under the fleet root::

    <root>/fleet.json        # shards, gamma, capacity, policy, ...
    <root>/shard-000/        # a full DurableStore per shard
    <root>/shard-001/
    ...

Whole-shard failure is first-class: :meth:`crash_shard` abandons a
shard controller exactly as SIGKILL would (no close, no flush);
:meth:`recover_shard` brings it back from its own WAL + checkpoint and
reconciles the router's estimates with the recovered truth.  While a
shard is down, new tenants route around it and operations on its
tenants surface as typed :class:`~repro.errors.ShardDownError`.

Migration safety: the rebalancer places on the target shard *before*
removing from the source, so a crash between the two steps leaves a
tenant present on both shards — never on neither.  :meth:`reconcile`
repairs that torn state deterministically (the copy on the
lowest-numbered shard wins).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.tenant import Tenant
from ..errors import (ConfigurationError, ShardDownError,
                      ShardSaturatedError, StoreCorruptionError)
from ..store.snapshot import make_directory, write_atomic
from ..store.wal import FSYNC_ALWAYS
from .router import POLICIES, PlacementRouter
from .shard import ShardController, shard_directory

PathLike = Union[str, Path]

FLEET_META_NAME = "fleet.json"
FLEET_META_FORMAT = "repro-fleet-meta"
FLEET_META_VERSION = 1


def write_fleet_meta(root: PathLike, **fields) -> Path:
    path = Path(root) / FLEET_META_NAME
    payload = {"format": FLEET_META_FORMAT,
               "version": FLEET_META_VERSION}
    payload.update(fields)
    make_directory(path.parent)
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=1))
    return path


def read_fleet_meta(root: PathLike) -> Dict[str, object]:
    path = Path(root) / FLEET_META_NAME
    if not path.exists():
        raise ConfigurationError(
            f"{path} does not exist — not a fleet root")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:
        raise StoreCorruptionError(f"{path}: unparseable: {err}") \
            from None
    if meta.get("format") != FLEET_META_FORMAT:
        raise StoreCorruptionError(
            f"{path}: format {meta.get('format')!r}, expected "
            f"{FLEET_META_FORMAT!r}")
    return meta


class PlacementFleet:
    """N durable shard controllers behind a deterministic router.

    Opening an existing fleet root recovers every shard (warm start);
    a fresh root writes ``fleet.json`` and starts shards cold.  The
    recorded shard count, gamma, and policy are authoritative on
    reopen — mismatched arguments are a configuration error, exactly
    like the store's own ``meta.json`` contract.
    """

    def __init__(self, root: PathLike, shards: int = 4,
                 gamma: int = 2, capacity: float = 1.0,
                 failures: Optional[int] = None,
                 policy: str = "hash", seed: int = 0,
                 max_servers_per_shard: Optional[int] = None,
                 obs=None, fsync: str = FSYNC_ALWAYS,
                 segment_records: int = 512) -> None:
        self.root = Path(root)
        meta_path = self.root / FLEET_META_NAME
        if meta_path.exists():
            # Reopen: the recorded geometry is authoritative, exactly
            # like the per-store meta.json contract (arguments that
            # disagree are ignored in favour of what is on disk; the
            # per-shard stores still hard-reject a gamma mismatch).
            meta = read_fleet_meta(self.root)
            shards = int(meta["shards"])
            gamma = int(meta["gamma"])
            capacity = float(meta["capacity"])
            policy = str(meta["policy"])
            seed = int(meta["seed"])
            max_servers_per_shard = meta.get("max_servers_per_shard")
        else:
            if policy not in POLICIES:
                raise ConfigurationError(
                    f"unknown policy {policy!r}; known: {POLICIES}")
            write_fleet_meta(
                self.root, shards=shards, gamma=gamma,
                capacity=capacity, policy=policy, seed=seed,
                max_servers_per_shard=max_servers_per_shard)
        self._obs = obs
        load_budget = (None if max_servers_per_shard is None
                       else max_servers_per_shard * capacity)
        self.router = PlacementRouter(
            shards, policy=policy, seed=seed, load_budget=load_budget)
        self.max_servers_per_shard = max_servers_per_shard
        self.shards: List[Optional[ShardController]] = []
        for shard_id in range(shards):
            self.shards.append(ShardController(
                shard_id, shard_directory(self.root, shard_id),
                gamma=gamma, capacity=capacity, failures=failures,
                max_servers=max_servers_per_shard, obs=obs,
                fsync=fsync, segment_records=segment_records))
        self.gamma = gamma
        self.capacity = capacity
        self.failures = failures
        self._fsync = fsync
        self._segment_records = segment_records
        #: tenant id -> shard id, for every tenant the fleet placed.
        self.shard_of: Dict[int, int] = {}
        for controller in self.shards:
            for tenant_id in controller.placement.tenant_ids:
                self.shard_of[tenant_id] = controller.shard_id
            self.router.reconcile(controller.shard_id,
                                  controller.total_load,
                                  controller.placement.num_tenants)

    # ------------------------------------------------------------------
    # Placement surface
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    def _live(self, shard_id: int) -> ShardController:
        controller = self.shards[shard_id]
        if controller is None:
            raise ShardDownError(
                f"shard {shard_id} is down", shard_id=shard_id)
        return controller

    def place(self, tenant: Tenant) -> Tuple[int, Tuple[int, ...]]:
        """Admit ``tenant``; returns ``(shard id, server ids)``.

        The router's target is tried first; a typed saturation refusal
        spills to siblings in ring order.  Only when every live shard
        refuses does the fleet itself raise
        :class:`~repro.errors.ShardSaturatedError`.
        """
        if tenant.tenant_id in self.shard_of:
            raise ConfigurationError(
                f"tenant {tenant.tenant_id} is already placed on "
                f"shard {self.shard_of[tenant.tenant_id]}")
        target = self.router.route(tenant)
        candidates = [target]
        try:
            servers = self._live(target).place(tenant)
        except ShardSaturatedError:
            servers = None
            for sibling in self.router.spill_order(tenant, target):
                candidates.append(sibling)
                try:
                    servers = self._live(sibling).place(tenant)
                except ShardSaturatedError:
                    continue
                target = sibling
                break
            if servers is None:
                raise ShardSaturatedError(
                    f"fleet saturated: no shard can place tenant "
                    f"{tenant.tenant_id} (load {tenant.load}); "
                    f"tried {candidates}", shard_id=target) from None
        self.router.record_place(target, tenant.load)
        self.router.routed += 1
        self.shard_of[tenant.tenant_id] = target
        if self._obs is not None:
            self._obs.counter("fleet.placed").inc()
        return target, servers

    def _home_of(self, tenant_id: int) -> int:
        try:
            return self.shard_of[tenant_id]
        except KeyError:
            raise ConfigurationError(
                f"tenant {tenant_id} is not placed on any shard") \
                from None

    def remove(self, tenant_id: int) -> int:
        """Remove ``tenant_id`` from its home shard; returns the shard."""
        shard_id = self._home_of(tenant_id)
        controller = self._live(shard_id)
        load = controller.placement.tenant_load(tenant_id)
        controller.remove(tenant_id)
        self.router.record_remove(shard_id, load)
        del self.shard_of[tenant_id]
        return shard_id

    def update_load(self, tenant_id: int, load: float) -> int:
        shard_id = self._home_of(tenant_id)
        controller = self._live(shard_id)
        before = controller.placement.tenant_load(tenant_id)
        controller.update_load(tenant_id, load)
        after = controller.placement.tenant_load(tenant_id)
        self.router.loads[shard_id] += after - before
        return shard_id

    # ------------------------------------------------------------------
    # Whole-shard failure
    # ------------------------------------------------------------------
    def crash_shard(self, shard_id: int) -> None:
        """Abandon a shard with kill -9 semantics and mark it down."""
        controller = self._live(shard_id)
        controller.crash()
        self.shards[shard_id] = None
        self.router.mark_down(shard_id)
        if self._obs is not None:
            self._obs.counter("fleet.shard_crashes").inc()
            self._obs.emit("fleet_shard_crash", shard=shard_id)

    def recover_shard(self, shard_id: int) -> ShardController:
        """Recover a crashed shard from its own WAL + checkpoint.

        The recovered placement is audited by the store layer; the
        router's estimate for the shard is reconciled with the
        recovered totals, and the tenant->shard map is rebuilt from
        the recovered tenant ids (dropping any mapping a lost
        in-flight operation might have left behind).
        """
        if self.shards[shard_id] is not None:
            raise ConfigurationError(
                f"shard {shard_id} is not down")
        controller = ShardController(
            shard_id, shard_directory(self.root, shard_id),
            gamma=self.gamma, capacity=self.capacity,
            failures=self.failures,
            max_servers=self.max_servers_per_shard, obs=self._obs,
            fsync=self._fsync,
            segment_records=self._segment_records)
        self.shards[shard_id] = controller
        self.shard_of = {tid: sid for tid, sid in self.shard_of.items()
                         if sid != shard_id}
        for tenant_id in controller.placement.tenant_ids:
            self.shard_of[tenant_id] = shard_id
        self.router.reconcile(shard_id, controller.total_load,
                              controller.placement.num_tenants)
        if self._obs is not None:
            self._obs.counter("fleet.shard_recoveries").inc()
            self._obs.emit("fleet_shard_recover", shard=shard_id,
                           tenants=controller.placement.num_tenants)
        return controller

    def reconcile(self) -> List[Tuple[int, int]]:
        """Repair tenants left on two shards by a torn migration.

        Returns ``(tenant id, shard the extra copy was removed from)``
        pairs.  Deterministic rule: the copy on the lowest-numbered
        shard survives.
        """
        seen: Dict[int, int] = {}
        removed: List[Tuple[int, int]] = []
        for controller in self.shards:
            if controller is None:
                continue
            for tenant_id in controller.placement.tenant_ids:
                if tenant_id not in seen:
                    seen[tenant_id] = controller.shard_id
                    continue
                load = controller.placement.tenant_load(tenant_id)
                controller.remove(tenant_id)
                self.router.record_remove(controller.shard_id, load)
                removed.append((tenant_id, controller.shard_id))
        self.shard_of = seen
        return removed

    # ------------------------------------------------------------------
    # Fleet-wide operations
    # ------------------------------------------------------------------
    def rebalance(self, max_moves: int = 16,
                  tolerance: float = 0.1) -> List["Migration"]:
        from .rebalance import rebalance
        return rebalance(self, max_moves=max_moves,
                         tolerance=tolerance)

    def audit_all(self) -> Dict[int, object]:
        """Robustness audit of every live shard (down shards skipped)."""
        return {controller.shard_id: controller.audit()
                for controller in self.shards if controller is not None}

    @property
    def all_audits_ok(self) -> bool:
        return all(report.ok for report in self.audit_all().values())

    def checkpoint_all(self) -> None:
        for controller in self.shards:
            if controller is not None:
                controller.checkpoint_and_compact()

    def status(self) -> Dict[str, object]:
        shard_rows = []
        for shard_id in range(self.num_shards):
            controller = self.shards[shard_id]
            if controller is None:
                shard_rows.append({"shard": shard_id, "down": True})
            else:
                row = controller.status()
                row["down"] = False
                shard_rows.append(row)
        live = [c for c in self.shards if c is not None]
        return {
            "root": str(self.root),
            "gamma": self.gamma,
            "tenants": sum(c.placement.num_tenants for c in live),
            "servers": sum(c.placement.num_servers for c in live),
            "router": self.router.snapshot(),
            "shards": shard_rows,
        }

    def close(self) -> None:
        for controller in self.shards:
            if controller is not None:
                controller.close()

    def __enter__(self) -> "PlacementFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlacementFleet(root={str(self.root)!r}, "
                f"shards={self.num_shards}, policy="
                f"{self.router.policy!r})")
