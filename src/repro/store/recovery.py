"""Durable placement store: checkpoint + WAL tail = restartable controller.

:class:`DurableStore` ties the pieces together for one controller run:

* a ``wal/`` directory holding the segmented
  :class:`~repro.store.wal.WriteAheadLog`,
* ``checkpoint.json`` — the latest v2 checkpoint
  (:mod:`repro.store.snapshot`),
* ``meta.json`` — the run's invariants (gamma, capacity, algorithm
  name, audited failure budget), written when an algorithm is bound.

The algorithm side is wired through
:meth:`~repro.algorithms.base.OnlinePlacementAlgorithm.attach_store`:
the instrumented ``place`` / ``remove`` / ``update_load`` wrappers log
one record per committed operation (plus ``open_server`` records for
every server the operation provisioned, via the
:meth:`DurableStore.log_open_through` watermark).  Harness-level
mutations that bypass the algorithm hooks — the failure-recovery
planner's per-replica moves, the repacker's migrations — are logged
explicitly with :meth:`DurableStore.log_move` /
:meth:`DurableStore.log_migrate`.

Recovery (:func:`recover`) restores the latest checkpoint, replays only
the WAL records at or after the checkpoint's ``wal_applied`` watermark
(O(tail), not O(history) — whole pre-checkpoint segments are skipped
unparsed), runs the full ``failures``-failure robustness audit, and only
then hands the state back.  :meth:`DurableStore.compact` deletes the WAL
segments a checkpoint has made redundant; compaction never changes what
:func:`recover` returns.

:func:`open_durable` is the one bring-up of a durable controller: it
opens the store, recovers and adopts whatever history the directory
holds (or builds a fresh controller for an empty one), and binds the
store.  A handle that opened onto a history refuses to bind any
controller before it has recovered that history, so no caller can
append a second history to the same WAL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.placement import PlacementState
from ..core.tenant import Replica, Tenant
from ..core.validation import AuditReport, audit
from ..errors import (ConfigurationError, PlacementError,
                      StoreCorruptionError)
from ..obs import LATENCY_BUCKETS
from .snapshot import (load_checkpoint, make_directory, save_checkpoint,
                       write_atomic)
from .wal import FSYNC_ALWAYS, FSYNC_NEVER, WriteAheadLog

PathLike = Union[str, Path]

META_FORMAT = "repro-store-meta"
META_VERSION = 1

META_NAME = "meta.json"
CHECKPOINT_NAME = "checkpoint.json"
WAL_DIRNAME = "wal"


@dataclass
class RecoveredState:
    """What :func:`recover` hands back after a successful audit."""

    #: The reconstructed placement (replica-for-replica identical to the
    #: crashed controller's committed state).
    placement: PlacementState
    #: Algorithm name recorded in ``meta.json`` ("" if never bound).
    algorithm: str
    gamma: int
    capacity: float
    #: Failure budget the post-recovery audit was run with.
    failures: int
    #: WAL watermark the checkpoint covered (0 = no checkpoint).
    checkpoint_seq: int
    #: WAL records replayed on top of the checkpoint (the *k* in O(k)).
    records_replayed: int
    #: Sequence number the next committed operation will get.
    next_seq: int
    #: The robustness audit the state passed before being handed back.
    audit: AuditReport


class DurableStore:
    """Checkpointed write-ahead store for one controller's placement.

    Parameters
    ----------
    directory:
        Store root (``meta.json``, ``checkpoint.json``, ``wal/``).
    fsync / segment_records:
        Passed through to :class:`~repro.store.wal.WriteAheadLog`.
    create:
        Create the directory if missing (default).  Read paths —
        :func:`recover`, the CLI ``recover`` subcommand — pass ``False``
        so a typoed path is a :class:`ConfigurationError`, not a fresh
        empty store that "recovers" to nothing.
    obs:
        Optional :class:`~repro.obs.MetricsRegistry`.
    """

    def __init__(self, directory: PathLike, fsync: str = FSYNC_ALWAYS,
                 segment_records: int = 512, create: bool = True,
                 obs=None) -> None:
        self.directory = Path(directory)
        if not create and not self.directory.is_dir():
            raise ConfigurationError(
                f"store directory {self.directory} does not exist")
        make_directory(self.directory, durable=fsync != FSYNC_NEVER)
        self.wal = WriteAheadLog(self.directory / WAL_DIRNAME,
                                 fsync=fsync,
                                 segment_records=segment_records)
        self._obs = obs
        #: Highest server id for which an ``open_server`` record exists
        #: (as a count); maintained by :meth:`log_open_through`.
        self._servers_logged = 0
        self._meta: Optional[Dict[str, object]] = None
        meta_path = self.directory / META_NAME
        if meta_path.exists():
            self._meta = _read_meta(meta_path)
        #: True while the directory holds a history this handle has not
        #: recovered; :meth:`bind` refuses until :meth:`recover` clears it.
        self._unrecovered = self.has_state

    # ------------------------------------------------------------------
    # Paths / metadata
    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.directory / META_NAME

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    @property
    def meta(self) -> Optional[Dict[str, object]]:
        """The bound run's invariants, if :meth:`bind` has happened."""
        return dict(self._meta) if self._meta is not None else None

    @property
    def has_state(self) -> bool:
        """Whether this directory holds anything :meth:`recover` could
        rebuild from (a bound ``meta.json`` or a checkpoint).

        Probed once when the handle opens: :func:`open_durable` reads
        that probe to choose a warm start (recover and adopt) over a
        fresh one, and :meth:`bind` to refuse an unrecovered history.
        """
        return self._meta is not None or self.checkpoint_path.exists()

    def attach_obs(self, registry) -> None:
        self._obs = registry

    def bind(self, algorithm) -> None:
        """Associate this store with ``algorithm`` (and vice versa not —
        call :meth:`~repro.algorithms.base.OnlinePlacementAlgorithm.attach_store`
        on the algorithm, which delegates here).

        Writes ``meta.json`` on first bind; on a re-bind (crash resume)
        verifies that gamma and capacity still match the recorded run.
        The ``open_server`` watermark starts at the placement's current
        next-server-id: servers that already exist are part of the
        recovered history, not new operations.

        A handle that opened onto existing state refuses to bind before
        :meth:`recover` has run on it: a controller that never saw the
        recorded history would log a second history into the same WAL,
        and the next recovery could not replay it.
        """
        if self._unrecovered:
            raise ConfigurationError(
                f"store {self.directory} already holds a history; "
                f"recover it before binding a controller "
                f"(repro.store.open_durable does both)")
        meta = {
            "format": META_FORMAT,
            "version": META_VERSION,
            "algorithm": algorithm.name,
            "gamma": algorithm.gamma,
            "capacity": algorithm.placement.capacity,
            "failures": algorithm.guaranteed_failures,
        }
        if self._meta is not None:
            for key in ("gamma", "capacity"):
                if self._meta.get(key) != meta[key]:
                    raise ConfigurationError(
                        f"store {self.directory} was created with "
                        f"{key}={self._meta.get(key)!r}; cannot bind an "
                        f"algorithm with {key}={meta[key]!r}")
        write_atomic(self.meta_path, json.dumps(meta, sort_keys=True))
        self._meta = meta
        self._servers_logged = algorithm.placement._next_server_id

    # ------------------------------------------------------------------
    # Logging (one call per committed operation)
    # ------------------------------------------------------------------
    def _append(self, op: str, data: Dict[str, object]) -> int:
        seq = self.wal.append(op, data)
        if self._obs is not None:
            self._obs.counter("store.wal_append").inc()
        return seq

    def log_open_through(self, next_server_id: int) -> None:
        """Emit ``open_server`` records for every server id in
        ``[watermark, next_server_id)``.

        The algorithm wrappers call this *before* logging the operation
        that opened the servers, so replay provisions servers before any
        record references them.
        """
        while self._servers_logged < next_server_id:
            self._append("open_server", {"server": self._servers_logged})
            self._servers_logged += 1

    def log_place(self, tenant_id: int, load: float,
                  servers: Sequence[int]) -> None:
        self._append("place", {"tenant": tenant_id, "load": load,
                               "servers": list(servers)})

    def log_remove(self, tenant_id: int) -> None:
        self._append("remove", {"tenant": tenant_id})

    def log_update_load(self, tenant_id: int, load: float,
                        servers: Sequence[int]) -> None:
        self._append("update_load", {"tenant": tenant_id, "load": load,
                                     "servers": list(servers)})

    def log_move(self, tenant_id: int, index: int, load: float,
                 source: int, target: int) -> None:
        """One per-replica move (failure recovery's primitive)."""
        self._append("move", {"tenant": tenant_id, "index": index,
                              "load": load, "source": source,
                              "target": target})

    def log_migrate(self, tenant_id: int, load: float,
                    targets: Sequence[int]) -> None:
        """One whole-tenant migration (the repacker's primitive)."""
        self._append("migrate", {"tenant": tenant_id, "load": load,
                                 "targets": list(targets)})

    # ------------------------------------------------------------------
    # Checkpoint / compaction
    # ------------------------------------------------------------------
    def checkpoint(self, placement: PlacementState) -> Path:
        """Write a checkpoint covering every record committed so far.

        The WAL is flushed first so the recorded ``wal_applied``
        watermark never runs ahead of durable records.
        """
        self._checkpoint(placement)
        return self.checkpoint_path

    def _checkpoint(self, placement: PlacementState) -> int:
        """:meth:`checkpoint`, returning the ``wal_applied`` it wrote."""
        obs = self._obs
        start = perf_counter() if obs is not None else 0.0
        self.wal.flush()
        watermark = self.wal.next_seq
        algorithm = ""
        if self._meta is not None:
            algorithm = str(self._meta.get("algorithm", ""))
        save_checkpoint(placement, self.checkpoint_path,
                        wal_applied=watermark, algorithm=algorithm)
        if obs is not None:
            obs.histogram("store.checkpoint.seconds",
                          buckets=LATENCY_BUCKETS).observe(
                              perf_counter() - start)
            obs.counter("store.checkpoint").inc()
            obs.emit("checkpoint", wal_applied=watermark,
                     servers=placement.num_servers,
                     tenants=placement.num_tenants)
        return watermark

    def compact(self) -> List[Path]:
        """Drop WAL segments the latest checkpoint made redundant.

        Only whole segments strictly below the checkpoint's
        ``wal_applied`` watermark are deleted, so recovery after
        compaction replays exactly the records it would have replayed
        before.  A no-op when no checkpoint exists.  The watermark is
        read back from ``checkpoint.json``, so this also serves a store
        that has not written a checkpoint itself;
        :meth:`checkpoint_and_compact` truncates at the watermark it
        just wrote instead.
        """
        if not self.checkpoint_path.exists():
            return []
        return self._truncate_wal(
            load_checkpoint(self.checkpoint_path).wal_applied)

    def _truncate_wal(self, watermark: int) -> List[Path]:
        removed = self.wal.truncate_before(watermark)
        if self._obs is not None and removed:
            self._obs.counter("store.compact.segments").inc(len(removed))
            self._obs.emit("compact", watermark=watermark,
                           segments=[p.name for p in removed])
        return removed

    def checkpoint_and_compact(self, placement: PlacementState
                               ) -> Tuple[Path, List[Path]]:
        """Checkpoint ``placement`` and drop the WAL segments the new
        checkpoint made redundant, in one call.

        The maintenance step of every durable caller: the serve
        daemon's timer and shutdown, fleet shards, and the soak and
        churn harnesses all run it, so none can drift on ordering
        (checkpoint strictly before compaction — compacting first
        would delete records the old checkpoint still needs).  The
        WAL is truncated at the watermark this checkpoint wrote; the
        file is not read back.
        """
        watermark = self._checkpoint(placement)
        return self.checkpoint_path, self._truncate_wal(watermark)

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, audit_failures: Optional[int] = None
                ) -> RecoveredState:
        """Rebuild the committed placement state from disk.

        Checkpoint first (if any), then the WAL tail; the result must
        pass the full robustness audit at ``audit_failures`` (default:
        the bound run's budget from ``meta.json``, else ``gamma - 1``)
        or :class:`~repro.errors.RobustnessViolation` is raised.
        """
        meta = self._meta
        checkpoint = None
        if self.checkpoint_path.exists():
            checkpoint = load_checkpoint(self.checkpoint_path)
        if meta is None and checkpoint is None:
            raise ConfigurationError(
                f"store {self.directory} has neither meta.json nor a "
                f"checkpoint; nothing to recover")
        if checkpoint is not None:
            gamma = checkpoint.gamma
            capacity = checkpoint.capacity
            start_seq = checkpoint.wal_applied
            if start_seq > self.wal.next_seq:
                raise StoreCorruptionError(
                    f"checkpoint covers {start_seq} WAL records but only "
                    f"{self.wal.next_seq} are on disk; the WAL was "
                    f"truncated past the checkpoint")
            placement = checkpoint.restore()
            algorithm = checkpoint.algorithm
        else:
            gamma = int(meta["gamma"])
            capacity = float(meta["capacity"])
            start_seq = 0
            placement = PlacementState(gamma=gamma, capacity=capacity)
            algorithm = str(meta.get("algorithm", ""))
        if meta is not None:
            if int(meta["gamma"]) != gamma:
                raise StoreCorruptionError(
                    f"meta.json gamma {meta['gamma']} != checkpoint "
                    f"gamma {gamma}")
            failures = int(meta.get("failures", gamma - 1))
        else:
            failures = gamma - 1
        if audit_failures is not None:
            failures = audit_failures

        from .. import faults
        if faults.active():
            # Recovery interrupted before the WAL tail replay: nothing
            # was mutated, a retry starts from scratch.
            faults.fire("store.recover.replay")
        replayed = 0
        for record in self.wal.records(start_seq):
            try:
                _apply(placement, record.op, record.data)
            except (PlacementError, ConfigurationError, KeyError,
                    TypeError, ValueError) as err:
                raise StoreCorruptionError(
                    f"WAL record seq={record.seq} op={record.op!r} "
                    f"cannot be replayed: {err}") from None
            replayed += 1

        report = audit(placement, failures)
        if self._obs is not None:
            self._obs.counter("store.recover.records_replayed") \
                .inc(replayed)
            self._obs.counter("store.recover").inc()
            self._obs.emit("recover", checkpoint_seq=start_seq,
                           records_replayed=replayed,
                           servers=placement.num_servers,
                           tenants=placement.num_tenants,
                           audit_ok=report.ok)
        report.raise_if_violated()
        self._unrecovered = False
        return RecoveredState(
            placement=placement, algorithm=algorithm, gamma=gamma,
            capacity=capacity, failures=failures,
            checkpoint_seq=start_seq, records_replayed=replayed,
            next_seq=self.wal.next_seq, audit=report)


def recover(directory: PathLike, obs=None,
            audit_failures: Optional[int] = None) -> RecoveredState:
    """Recover the committed state from an existing store directory.

    Convenience wrapper: opens the store read-style (``create=False``,
    so a wrong path raises :class:`~repro.errors.ConfigurationError`)
    and delegates to :meth:`DurableStore.recover`.
    """
    with DurableStore(directory, create=False, obs=obs) as store:
        return store.recover(audit_failures=audit_failures)


def open_durable(directory: PathLike,
                 fresh: Optional[Callable[[], object]] = None, *,
                 fsync: str = FSYNC_ALWAYS, segment_records: int = 512,
                 obs=None) -> Tuple[object, Optional[RecoveredState]]:
    """Open the store under ``directory`` and bind a controller to it.

    A directory that holds a history is recovered (full audit) and its
    placement adopted into a
    :class:`~repro.algorithms.naive.RobustBestFit` at the recovered
    gamma, capacity and failure budget; an empty one gets ``fresh()``.
    ``fresh=None`` means the directory must hold a history (a crash
    resume).  ``obs`` is attached to the store and the controller, then
    the store is attached.  Returns ``(algorithm, recovered)``, with
    ``recovered`` ``None`` on a fresh start.  The store is closed if any
    step raises, so the call can simply be retried.
    """
    from ..algorithms.naive import RobustBestFit
    store = DurableStore(directory, fsync=fsync,
                         segment_records=segment_records, obs=obs)
    try:
        recovered = None
        if store._unrecovered or fresh is None:
            recovered = store.recover()
            algorithm = RobustBestFit(gamma=recovered.gamma,
                                      failures=recovered.failures,
                                      capacity=recovered.capacity)
            algorithm.adopt(recovered.placement)
        else:
            algorithm = fresh()
        algorithm.attach_obs(obs)
        algorithm.attach_store(store)
    except BaseException:
        store.close()
        raise
    return algorithm, recovered


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------
def _apply(placement: PlacementState, op: str,
           data: Dict[str, object]) -> None:
    """Apply one WAL record to ``placement``.

    Replay uses the *recorded* server choices, not the algorithm — the
    log captures decisions, so recovery is deterministic regardless of
    which algorithm produced them.  ``place``-style records rely on the
    ``_place`` contract that replica ``j`` landed on ``servers[j]``.
    """
    if op == "open_server":
        expected = int(data["server"])
        if placement._next_server_id != expected:
            raise StoreCorruptionError(
                f"open_server record for id {expected} but placement "
                f"would assign {placement._next_server_id}")
        placement.open_server()
    elif op == "place":
        placement.place_tenant(
            Tenant(int(data["tenant"]), float(data["load"])),
            [int(s) for s in data["servers"]])
    elif op == "remove":
        placement.remove_tenant(int(data["tenant"]))
    elif op == "update_load":
        tenant_id = int(data["tenant"])
        placement.remove_tenant(tenant_id)
        placement.place_tenant(
            Tenant(tenant_id, float(data["load"])),
            [int(s) for s in data["servers"]])
    elif op == "move":
        tenant_id = int(data["tenant"])
        index = int(data["index"])
        placement.unplace((tenant_id, index), int(data["source"]))
        placement.place(
            Replica(tenant_id=tenant_id, index=index,
                    load=float(data["load"])),
            int(data["target"]))
    elif op == "migrate":
        tenant_id = int(data["tenant"])
        placement.remove_tenant(tenant_id)
        placement.place_tenant(
            Tenant(tenant_id, float(data["load"])),
            [int(s) for s in data["targets"]])
    else:
        raise StoreCorruptionError(f"unknown WAL op {op!r}")


# ---------------------------------------------------------------------------
# meta.json helpers
# ---------------------------------------------------------------------------
def _read_meta(path: Path) -> Dict[str, object]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(
            f"cannot read store metadata {path}: {err}") from err
    if payload.get("format") != META_FORMAT:
        raise ConfigurationError(
            f"{path}: expected format {META_FORMAT!r}, got "
            f"{payload.get('format')!r}")
    if payload.get("version") != META_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported store-meta version "
            f"{payload.get('version')!r}")
    return payload


__all__ = ["DurableStore", "RecoveredState", "open_durable", "recover"]
