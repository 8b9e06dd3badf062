"""Self-contained placement checkpoints (format version 2).

The one placement file format.  A checkpoint is self-contained — it
stores ``gamma``, the per-server capacity, every replica's exact load
(so elastic load updates, fan-out replica indices and unequal replica
loads all survive), the server tags algorithms hang their bookkeeping
on (e.g. CUBEFIT's ``mature`` flag), and the next-server-id counter —
so a checkpoint plus a WAL tail fully determines the controller's
placement state::

    {"format": "repro-checkpoint", "version": 2,
     "algorithm": "cubefit", "gamma": 2, "capacity": 1.0,
     "wal_applied": 123, "next_server_id": 7,
     "servers": [{"id": 0, "tags": {"mature": true},
                  "replicas": [[7, 0, 0.125], ...]}, ...]}

``wal_applied`` is the number of WAL records the checkpointed state
reflects; recovery replays records with ``seq >= wal_applied``.

Floats survive exactly: ``json`` serializes doubles with shortest
round-trip ``repr``, so a restored replica load is bitwise equal to the
live one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Sequence, Tuple,
                    Union)

from .. import faults
from ..core.placement import PlacementState
from ..core.tenant import LOAD_EPS, Replica
from ..errors import (ConfigurationError, SimulatedCrash,
                      StoreCorruptionError)

PathLike = Union[str, Path]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 2


def _jsonable(value):
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"checkpoint field of type {type(value).__name__} is not "
        f"JSON-serializable: {value!r}")


@dataclass
class Checkpoint:
    """Parsed checkpoint contents; :meth:`restore` rebuilds the state."""

    gamma: int
    capacity: float
    wal_applied: int
    next_server_id: int
    algorithm: str = ""
    #: server id -> (tags, [(tenant_id, index, load), ...])
    servers: Dict[int, Tuple[Dict[str, object],
                             List[Tuple[int, int, float]]]] = \
        field(default_factory=dict)

    def restore(self) -> PlacementState:
        """Rebuild an exact :class:`PlacementState`.

        Servers are provisioned up to ``next_server_id`` (so ids opened
        but empty at checkpoint time survive and future ids continue
        where the crashed controller left off), tags are restored, and
        every replica is re-placed with its recorded index and exact
        load — the shared-load index rebuilds itself through the normal
        mutation path.
        """
        placement = PlacementState(gamma=self.gamma,
                                   capacity=self.capacity)
        for _ in range(self.next_server_id):
            placement.open_server()
        by_tenant: Dict[int, List[Tuple[int, int, float]]] = {}
        for sid, (tags, replicas) in self.servers.items():
            if sid >= self.next_server_id:
                raise StoreCorruptionError(
                    f"checkpoint: server {sid} >= next_server_id "
                    f"{self.next_server_id}")
            placement.server(sid).tags.update(tags)
            for tenant_id, index, load in replicas:
                by_tenant.setdefault(tenant_id, []).append(
                    (index, sid, load))
        # Per tenant, replicas go back in index order — the order
        # place_tenant used originally — so the per-tenant load
        # accumulator sums in a deterministic order.
        for tenant_id in sorted(by_tenant):
            for index, sid, load in sorted(by_tenant[tenant_id]):
                placement.place(
                    Replica(tenant_id=tenant_id, index=index, load=load),
                    sid)
        return placement


def _fsync_directory(directory: Path) -> None:
    """Make the entries of ``directory`` (a rename into it) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def make_directory(directory: Path, durable: bool = True) -> None:
    """``mkdir -p directory``; with ``durable``, fsync the parent of
    every directory it creates, so a power loss cannot drop the new
    entry and everything written under it."""
    try:
        directory.mkdir()
    except FileNotFoundError:
        make_directory(directory.parent, durable)
        directory.mkdir(exist_ok=True)
    except FileExistsError:
        if directory.is_dir():
            return
        raise
    if durable:
        _fsync_directory(directory.parent)


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text``, atomically and durably.

    Writes a temporary file, fsyncs it, ``os.replace``-s it over
    ``path``, then fsyncs the directory: a power loss leaves either the
    old file or the new one, and once this returns the new one stays.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _encode(placement: PlacementState, wal_applied: int = 0,
            algorithm: str = "") -> Dict[str, object]:
    """The checkpoint payload of ``placement``: the one encoder, shared
    by :func:`save_checkpoint` and in-memory copies."""
    if wal_applied < 0:
        raise ConfigurationError(
            f"wal_applied must be >= 0, got {wal_applied}")
    servers = []
    for server in placement.servers:
        servers.append({
            "id": server.server_id,
            "tags": dict(server.tags),
            "replicas": [[tenant_id, index, replica.load]
                         for (tenant_id, index), replica
                         in sorted(server.replicas.items())],
        })
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "algorithm": algorithm,
        "gamma": placement.gamma,
        "capacity": placement.capacity,
        "wal_applied": wal_applied,
        "next_server_id": placement._next_server_id,
        "servers": servers,
    }


def _decode(payload: Dict[str, object], source: PathLike) -> Checkpoint:
    """Parse a checkpoint payload: the one decoder, shared by
    :func:`load_checkpoint` and in-memory copies."""
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(
            f"{source}: expected format {CHECKPOINT_FORMAT!r}, got "
            f"{payload.get('format')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"{source}: unsupported checkpoint version "
            f"{payload.get('version')!r}")
    try:
        checkpoint = Checkpoint(
            gamma=int(payload["gamma"]),
            capacity=float(payload["capacity"]),
            wal_applied=int(payload["wal_applied"]),
            next_server_id=int(payload["next_server_id"]),
            algorithm=str(payload.get("algorithm", "")))
        for entry in payload["servers"]:
            replicas = [(int(t), int(i), float(load))
                        for t, i, load in entry["replicas"]]
            checkpoint.servers[int(entry["id"])] = (
                dict(entry.get("tags", {})), replicas)
    except (KeyError, TypeError, ValueError) as err:
        raise StoreCorruptionError(
            f"{source}: malformed checkpoint payload ({err})") from None
    return checkpoint


def save_checkpoint(placement: PlacementState, path: PathLike,
                    wal_applied: int = 0, algorithm: str = "") -> None:
    """Write a v2 checkpoint of ``placement`` atomically.

    The payload is encoded in full first (a field the encoder rejects
    raises before any file exists), written to a temporary file with
    one call, fsynced and ``os.replace``-d into place, so a crash
    mid-checkpoint leaves either the previous checkpoint or the new one
    — never a half-written file.  The directory is fsynced after the
    rename, so the new checkpoint is durable before the caller compacts
    the WAL segments it made redundant.
    """
    payload = _encode(placement, wal_applied, algorithm)
    # ``json.dumps`` runs CPython's C encoder; ``json.dump`` to a file
    # never does and makes thousands of small writes.
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    if faults.active():
        # Before the temp file exists: the previous checkpoint (if
        # any) stays untouched and authoritative.
        faults.fire("store.checkpoint.write")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    if faults.active() and faults.should("store.checkpoint.partial"):
        # Crash between writing the temp file and the atomic rename:
        # truncate the temp to half so the artifact is genuinely
        # partial, then die.  Recovery never reads ``*.tmp`` files,
        # so the previous checkpoint still governs.
        with open(tmp, "r+", encoding="utf-8") as handle:
            size = handle.seek(0, os.SEEK_END)
            handle.truncate(size // 2)
        raise SimulatedCrash(
            f"failpoint store.checkpoint.partial left {tmp.name} "
            f"half-written", failpoint="store.checkpoint.partial")
    os.replace(tmp, target)
    _fsync_directory(target.parent)


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read a checkpoint previously written by :func:`save_checkpoint`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(
            f"cannot read checkpoint {path}: {err}") from err
    return _decode(payload, path)


def diff_placements(a: PlacementState, b: PlacementState,
                    load_tol: float = LOAD_EPS,
                    compare_tags: bool = True,
                    ignore_provisioning: bool = False) -> List[str]:
    """Differences between two placement states (empty == identical).

    Replica *assignments* and per-replica loads are compared exactly
    (both survive serialization bitwise); the per-tenant load
    accumulators are compared within ``load_tol`` because a recovered
    state re-sums them fresh, while a long-lived state carries the
    rounding history of every remove-and-replace it survived.

    ``compare_tags=False`` skips server tags.  Tags are algorithm
    bookkeeping (CUBEFIT's maturity/slot counters) mutated outside the
    logged operations, so they are durable only up to the latest
    *checkpoint*, not the WAL tail; crash-recovery differentials
    compare them loosely for that reason (see ``docs/durability.md``).

    ``ignore_provisioning=True`` skips the server-count and
    next-server-id comparison.  A fault between an ``open_server``
    record and the operation that needed the server (e.g. an fsync
    failure mid-operation) legitimately leaves the recovered state with
    a trailing *empty* server the in-memory state rolled back; the
    chaos conformance differential tolerates exactly that, and nothing
    else.
    """
    diffs: List[str] = []
    if a.gamma != b.gamma:
        diffs.append(f"gamma: {a.gamma} != {b.gamma}")
    if a.capacity != b.capacity:
        diffs.append(f"capacity: {a.capacity!r} != {b.capacity!r}")
    if not ignore_provisioning:
        if a.num_servers != b.num_servers:
            diffs.append(
                f"num_servers: {a.num_servers} != {b.num_servers}")
        if a._next_server_id != b._next_server_id:
            diffs.append(f"next_server_id: {a._next_server_id} != "
                         f"{b._next_server_id}")
    snap_a, snap_b = a.snapshot(), b.snapshot()
    if ignore_provisioning:
        snap_a = {sid: reps for sid, reps in snap_a.items() if reps}
        snap_b = {sid: reps for sid, reps in snap_b.items() if reps}
    if snap_a != snap_b:
        changed = sorted(sid for sid in set(snap_a) | set(snap_b)
                         if snap_a.get(sid) != snap_b.get(sid))
        diffs.append(f"replica assignment differs on servers {changed}")
    for sid in sorted(set(a.server_ids) & set(b.server_ids)):
        sa, sb = a.server(sid), b.server(sid)
        for key in set(sa.replicas) & set(sb.replicas):
            if sa.replicas[key].load != sb.replicas[key].load:
                diffs.append(
                    f"server {sid} replica {key}: load "
                    f"{sa.replicas[key].load!r} != "
                    f"{sb.replicas[key].load!r}")
        if compare_tags and sa.tags != sb.tags:
            diffs.append(f"server {sid} tags: {sa.tags!r} != "
                         f"{sb.tags!r}")
    tenants_a, tenants_b = set(a.tenant_ids), set(b.tenant_ids)
    if tenants_a != tenants_b:
        diffs.append(
            f"tenant sets differ: only-a={sorted(tenants_a - tenants_b)}"
            f" only-b={sorted(tenants_b - tenants_a)}")
    for tenant_id in sorted(tenants_a & tenants_b):
        la, lb = a.tenant_load(tenant_id), b.tenant_load(tenant_id)
        if abs(la - lb) > load_tol:
            diffs.append(
                f"tenant {tenant_id} load: {la!r} != {lb!r}")
    return diffs


def diff_acked(placement: PlacementState,
               acked: Mapping[int, Sequence[int]],
               in_flight: Iterable[int] = ()) -> List[str]:
    """Divergences of a recovered placement from what its controller
    acked (empty == the durability contract held).

    ``acked`` maps each acked tenant to its servers in replica-index
    order; each must be back on exactly those servers.  A recovered
    tenant that was never acked is a divergence unless it is in
    ``in_flight``: a request a kill severed after its WAL record
    committed but before the ack went out.
    """
    diffs: List[str] = []
    for tenant_id, servers in sorted(acked.items()):
        by_index = placement.tenant_servers(tenant_id)
        got = [by_index[i] for i in sorted(by_index)]
        if got != list(servers):
            diffs.append(f"tenant {tenant_id}: acked {list(servers)}, "
                         f"recovered {got}")
    tolerated = set(in_flight)
    for tenant_id in placement.tenant_ids:
        if tenant_id not in acked and tenant_id not in tolerated:
            diffs.append(f"tenant {tenant_id}: recovered, never acked")
    return diffs
