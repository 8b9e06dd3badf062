"""Fleet-scale soaks: admit a seeded stream, drill a crash, verify.

Two soaks run the same admission stream through the same routing
decisions; unbudgeted, their per-shard packings are
fingerprint-identical.

:func:`run_streaming_soak` is what ``repro fleet-soak`` runs by default
(``--jobs 1``).  Tenants are drawn lazily
(:func:`~repro.workloads.sequences.stream_tenants`), routed window by
window (:meth:`PlacementRouter.stream
<repro.fleet.router.PlacementRouter.stream>`), and admitted through
each shard's :meth:`~repro.fleet.shard.ShardController.place_batch` on
long-lived in-process controllers — at most one window of the stream
is ever resident, which is what lets ``repro fleet-soak`` ingest
millions of tenants in one process.  A budget refusal spills to the
siblings at once, in ring order.  Packing fingerprints are maintained
incrementally (per-shard tenant ids are strictly increasing, so the
canonical sorted serialization can be hashed as admissions happen),
and the crash drill verifies recovery by fingerprint instead of
replaying an acked map it never kept.

:func:`run_fleet_soak` is what ``--jobs N`` runs for ``N > 1``, in
three phases whose result is bit-identical at any ``jobs`` setting:

1. **Route.**  The whole stream is assigned up front
   (:meth:`~repro.fleet.router.PlacementRouter.assign`).  Routing uses
   only the router's own estimates, so the per-shard sub-streams are
   fixed before any shard exists.
2. **Execute.**  Each shard's sub-stream runs in a
   :func:`repro.par.pmap` worker that owns the shard's
   :class:`~repro.fleet.shard.ShardController` (and therefore its WAL
   + checkpoint directory) exclusively; ``jobs`` only changes
   wall-clock time.  The victim shard's worker verifies that every
   acked placement came back replica-for-replica.
3. **Spill.**  Tenants refused by their budgeted shard are re-admitted
   serially through a live :class:`~repro.fleet.fleet.PlacementFleet`
   (router spillover, ring order).  Unbudgeted fleets never spill;
   budgeted ones may pack differently from the streaming soak, which
   spills each refusal at once.

Both soaks SIGKILL-simulate the configured crash shard mid-stream
(abandoned with no shutdown) and recover it from its own WAL +
checkpoint — after the stream instead, when the victim's share is too
short to reach the trigger — then checkpoint, audit and close every
shard.  Latency is measured, not inferred: with an obs registry
attached, each soak reports p50/p99 of the per-operation
``placement.place.seconds`` histogram
(:data:`~repro.obs.LATENCY_BUCKETS`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.tenant import Tenant
from ..errors import ConfigurationError, ShardSaturatedError
from ..obs import LATENCY_BUCKETS
from ..par import pmap
from ..store import diff_acked
from ..store.wal import FSYNC_ALWAYS
from ..workloads.distributions import UniformLoad
from ..workloads.sequences import generate_sequence, stream_tenants
from .fleet import PlacementFleet, write_fleet_meta
from .router import POLICIES, PlacementRouter
from .shard import ShardController, shard_directory

PathLike = Union[str, Path]


@dataclass(frozen=True)
class FleetSoakConfig:
    """Parameters of one fleet soak."""

    shards: int = 4
    tenants: int = 10000
    policy: str = "hash"
    gamma: int = 2
    seed: int = 0
    #: Upper bound of the uniform tenant-load distribution.
    max_load: float = 0.6
    max_servers_per_shard: Optional[int] = None
    #: Shard to SIGKILL-simulate mid-stream (``None`` disables the
    #: crash drill; the default crashes shard 0).
    crash_shard: Optional[int] = 0
    segment_records: int = 512

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}")
        if self.tenants < 1:
            raise ConfigurationError(
                f"tenants must be >= 1, got {self.tenants}")
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; known: {POLICIES}")
        if self.crash_shard is not None and not (
                0 <= self.crash_shard < self.shards):
            raise ConfigurationError(
                f"crash_shard must be in [0, {self.shards}), got "
                f"{self.crash_shard}")


@dataclass
class ShardOutcome:
    """What one shard's worker did (picklable; crosses the pool)."""

    shard_id: int
    tenants: int
    servers: int
    nonempty_servers: int
    total_load: float
    utilization: float
    audit_ok: bool
    min_slack: float
    wal_next_seq: int
    #: sha256 over the sorted ``tenant -> [servers]`` mapping — the
    #: deterministic identity of this shard's packing.
    fingerprint: str
    elapsed: float
    #: ``(tenant_id, load)`` pairs the shard refused (budget).
    spilled: List[Tuple[int, float]] = field(default_factory=list)
    #: Crash-drill evidence, when this shard was the victim.
    crash: Optional[Dict[str, object]] = None


@dataclass
class FleetSoakResult:
    """Aggregate of one fleet soak."""

    config: FleetSoakConfig
    outcomes: List[ShardOutcome]
    placed: int
    spill_placed: int
    spill_unplaced: int
    servers: int
    utilization: float
    wall_seconds: float
    tenants_per_second: float
    #: Sum over shards of (tenants / shard seconds): the rate the fleet
    #: sustains when shards run on independent cores.
    aggregate_tenants_per_second: float
    latency_p50: Optional[float]
    latency_p99: Optional[float]
    router: Dict[str, object]

    @property
    def audits_ok(self) -> bool:
        return all(o.audit_ok for o in self.outcomes)

    @property
    def crash_outcome(self) -> Optional[ShardOutcome]:
        for outcome in self.outcomes:
            if outcome.crash is not None:
                return outcome
        return None

    @property
    def crash_divergences(self) -> List[str]:
        outcome = self.crash_outcome
        if outcome is None:
            return []
        return list(outcome.crash["divergences"])

    @property
    def ok(self) -> bool:
        return (self.audits_ok and not self.crash_divergences
                and self.placed + self.spill_placed
                + self.spill_unplaced == self.config.tenants)

    def fingerprint(self) -> str:
        """Deterministic identity of the whole run (jobs-invariant)."""
        digest = hashlib.sha256()
        for outcome in self.outcomes:
            digest.update(outcome.fingerprint.encode("ascii"))
        digest.update(json.dumps(self.router,
                                 sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    def __str__(self) -> str:
        cfg = self.config
        lines = [
            f"Fleet soak: {cfg.tenants} tenants over {cfg.shards} "
            f"shard(s), policy {cfg.policy}, gamma {cfg.gamma}, "
            f"seed {cfg.seed}",
            f"  placed {self.placed} (+{self.spill_placed} spilled, "
            f"{self.spill_unplaced} refused) on {self.servers} "
            f"servers at {self.utilization:.4f} utilization",
            f"  wall {self.wall_seconds:.2f}s = "
            f"{self.tenants_per_second:,.0f} tenants/s; aggregate "
            f"{self.aggregate_tenants_per_second:,.0f} tenants/s "
            f"across shards",
        ]
        if self.latency_p99 is not None:
            lines.append(
                f"  place latency p50 {self.latency_p50 * 1e6:.0f}us, "
                f"p99 {self.latency_p99 * 1e6:.0f}us")
        outcome = self.crash_outcome
        if outcome is not None:
            crash = outcome.crash
            verdict = ("clean" if not crash["divergences"]
                       else f"{len(crash['divergences'])} DIVERGENCES")
            lines.append(
                f"  crash drill: shard {outcome.shard_id} killed after "
                f"{crash['acked']} acked placements, recovered "
                f"replica-for-replica: {verdict}")
        lines.append(
            f"  audits: "
            f"{'all clean' if self.audits_ok else 'VIOLATED'} "
            f"({sum(o.audit_ok for o in self.outcomes)}/"
            f"{len(self.outcomes)} shards)")
        return "\n".join(lines)


class _PackingDigest:
    """Incremental sha256 of the canonical packing serialization,
    ``[[tenant,[servers]],...]`` in compact JSON, fed one tenant at a
    time in ascending tenant id."""

    __slots__ = ("_hasher", "count")

    def __init__(self) -> None:
        self._hasher = hashlib.sha256(b"[")
        self.count = 0

    def feed(self, tenant_id: int, servers) -> None:
        if self.count:
            self._hasher.update(b",")
        self._hasher.update(json.dumps(
            [tenant_id, list(servers)],
            separators=(",", ":")).encode("ascii"))
        self.count += 1

    def hexdigest(self) -> str:
        digest = self._hasher.copy()
        digest.update(b"]")
        return digest.hexdigest()


def _packing_fingerprint(acked: Dict[int, List[int]]) -> str:
    digest = _PackingDigest()
    for tenant_id in sorted(acked):
        digest.feed(tenant_id, acked[tenant_id])
    return digest.hexdigest()


def _crash_report(at: int, acked: int, divergences: List[str],
                  recovered) -> Dict[str, object]:
    """The crash-drill evidence a victim shard's outcome carries."""
    return {
        "at": at,
        "acked": acked,
        "divergences": divergences,
        "audit_ok": recovered is not None and recovered.audit.ok,
        "records_replayed": (0 if recovered is None
                             else recovered.records_replayed),
        "checkpoint_seq": (0 if recovered is None
                           else recovered.checkpoint_seq),
    }


def _close_shard(controller: ShardController, fingerprint: str,
                 elapsed: float, spilled: List[Tuple[int, float]],
                 crash: Optional[Dict[str, object]]) -> ShardOutcome:
    """Checkpoint, audit and close a shard whose stream is done."""
    controller.checkpoint_and_compact()
    report = controller.audit()
    placement = controller.placement
    outcome = ShardOutcome(
        shard_id=controller.shard_id,
        tenants=placement.num_tenants,
        servers=placement.num_servers,
        nonempty_servers=placement.num_nonempty_servers,
        total_load=placement.total_load(),
        utilization=placement.utilization(),
        audit_ok=report.ok,
        min_slack=report.min_slack,
        wal_next_seq=controller.store.wal.next_seq,
        fingerprint=fingerprint,
        elapsed=elapsed,
        spilled=spilled,
        crash=crash,
    )
    controller.close()
    return outcome


def _place_latency(obs) -> Tuple[Optional[float], Optional[float]]:
    """p50 and p99 of the ``placement.place.seconds`` histogram."""
    if obs is None:
        return None, None
    histogram = obs.histogram("placement.place.seconds",
                              buckets=LATENCY_BUCKETS)
    if not histogram.count:
        return None, None
    return histogram.percentile(50.0), histogram.percentile(99.0)


def _run_shard(item, registry) -> ShardOutcome:
    """Worker body: run one shard's sub-stream to completion.

    ``item`` is ``(shard_id, root, gamma, max_servers,
    segment_records, assignment, crash_at)`` where ``assignment`` is
    the routed ``(tenant_id, load)`` sub-stream and ``crash_at`` is an
    index into it (-1: no crash drill on this shard).
    """
    (shard_id, root, gamma, max_servers, segment_records,
     assignment, crash_at) = item

    def fresh() -> ShardController:
        return ShardController(
            shard_id, shard_directory(root, shard_id), gamma=gamma,
            max_servers=max_servers, obs=registry,
            segment_records=segment_records)

    def crash_drill(at: int) -> None:
        # SIGKILL semantics: abandon the controller with no shutdown,
        # then recover from the shard's own WAL + checkpoint and
        # verify every acked placement survived.
        nonlocal controller, crash_report
        controller.crash()
        controller = fresh()
        crash_report = _crash_report(
            at, len(acked), diff_acked(controller.placement, acked),
            controller.recovered_state)

    started = time.perf_counter()
    controller = fresh()
    acked: Dict[int, List[int]] = {}
    spilled: List[Tuple[int, float]] = []
    crash_report: Optional[Dict[str, object]] = None
    for index, (tenant_id, load) in enumerate(assignment):
        if index == crash_at:
            crash_drill(index)
        try:
            servers = controller.place(Tenant(tenant_id, load))
        except ShardSaturatedError:
            spilled.append((tenant_id, load))
            continue
        acked[tenant_id] = list(servers)
    if crash_at >= 0 and crash_report is None and acked:
        # A one-tenant sub-stream never reaches the trigger; drill
        # once after the stream, as the streaming soak does.
        crash_drill(len(assignment))
    return _close_shard(controller, _packing_fingerprint(acked),
                        time.perf_counter() - started, spilled,
                        crash_report)


def run_fleet_soak(root: PathLike,
                   config: Optional[FleetSoakConfig] = None,
                   obs=None, jobs: int = 1) -> FleetSoakResult:
    """Run the route-then-execute soak; see the module docstring."""
    cfg = config if config is not None else FleetSoakConfig()
    root = Path(root)
    sequence = generate_sequence(UniformLoad(cfg.max_load),
                                 cfg.tenants, seed=cfg.seed)
    load_budget = (None if cfg.max_servers_per_shard is None
                   else float(cfg.max_servers_per_shard))
    router = PlacementRouter(cfg.shards, policy=cfg.policy,
                             seed=cfg.seed, load_budget=load_budget)
    assignments: List[List[Tuple[int, float]]] = [
        [] for _ in range(cfg.shards)]
    for tenant in sequence:
        assignments[router.assign(tenant)].append(
            (tenant.tenant_id, tenant.load))
    write_fleet_meta(root, shards=cfg.shards, gamma=cfg.gamma,
                     capacity=1.0, policy=cfg.policy, seed=cfg.seed,
                     max_servers_per_shard=cfg.max_servers_per_shard)

    items = []
    for shard, assignment in enumerate(assignments):
        crash_at = -1
        if cfg.crash_shard == shard and assignment:
            crash_at = max(1, len(assignment) // 2)
        items.append((shard, str(root), cfg.gamma,
                      cfg.max_servers_per_shard, cfg.segment_records,
                      assignment, crash_at))

    started = time.perf_counter()
    outcomes: List[ShardOutcome] = pmap(_run_shard, items, jobs=jobs,
                                        obs=obs)

    spill_placed = spill_unplaced = 0
    spilled = [pair for outcome in outcomes
               for pair in outcome.spilled]
    if spilled:
        with PlacementFleet(root, obs=obs) as fleet:
            for tenant_id, load in spilled:
                try:
                    fleet.place(Tenant(tenant_id, load))
                except ShardSaturatedError:
                    spill_unplaced += 1
                else:
                    spill_placed += 1
            fleet.checkpoint_all()
            servers = fleet.status()["servers"]
            total_load = sum(c.total_load for c in fleet.shards)
            nonempty = sum(c.placement.num_nonempty_servers
                           for c in fleet.shards)
            audits = fleet.audit_all()
            for outcome, controller in zip(outcomes, fleet.shards):
                outcome.audit_ok = audits[controller.shard_id].ok
            router_snapshot = fleet.router.snapshot()
        utilization = (total_load / nonempty) if nonempty else 0.0
    else:
        servers = sum(o.servers for o in outcomes)
        total_load = sum(o.total_load for o in outcomes)
        nonempty = sum(o.nonempty_servers for o in outcomes)
        utilization = (total_load / nonempty) if nonempty else 0.0
        router_snapshot = router.snapshot()
    wall = time.perf_counter() - started

    placed = sum(o.tenants for o in outcomes)
    aggregate = sum(o.tenants / o.elapsed for o in outcomes
                    if o.elapsed > 0 and o.tenants)
    p50, p99 = _place_latency(obs)
    return FleetSoakResult(
        config=cfg, outcomes=outcomes, placed=placed,
        spill_placed=spill_placed, spill_unplaced=spill_unplaced,
        servers=servers, utilization=utilization,
        wall_seconds=wall,
        tenants_per_second=(cfg.tenants / wall if wall > 0 else 0.0),
        aggregate_tenants_per_second=aggregate,
        latency_p50=p50, latency_p99=p99, router=router_snapshot)


# ----------------------------------------------------------------------
# Streaming ingestion (bounded resident memory)
# ----------------------------------------------------------------------

#: Tenants routed + admitted per streaming window (a multiple of the
#: admission batch keeps the shard-side chunks full).
DEFAULT_WINDOW = 4096


class _StreamShard:
    """In-process bookkeeping for one shard of a streaming soak."""

    __slots__ = ("shard_id", "controller", "packing", "elapsed",
                 "foreign", "crash_report", "refused")

    def __init__(self, shard_id: int,
                 controller: ShardController) -> None:
        self.shard_id = shard_id
        self.controller = controller
        # Per-shard tenant ids arrive strictly increasing, so admission
        # order *is* sorted order and the digest is fed as placements
        # are acked.
        self.packing = _PackingDigest()
        self.elapsed = 0.0
        #: Tenant ids admitted here via spillover from another shard's
        #: refusal — excluded from the fingerprint, exactly like the
        #: batch soak's phase-3 spills.
        self.foreign: set = set()
        self.crash_report: Optional[Dict[str, object]] = None
        self.refused: List[Tuple[int, float]] = []


def _recovered_packing(placement, exclude: set) -> _PackingDigest:
    """Packing digest of a recovered placement, ``exclude`` left out.

    A clean recovery reproduces the running digest of the shard it
    recovered bit-for-bit, without the soak ever keeping an acked map.
    """
    digest = _PackingDigest()
    for tenant_id in sorted(placement.tenant_ids):
        if tenant_id in exclude:
            continue
        by_index = placement.tenant_servers(tenant_id)
        digest.feed(tenant_id, [by_index[i] for i in sorted(by_index)])
    return digest


def run_streaming_soak(root: PathLike,
                       config: Optional[FleetSoakConfig] = None,
                       obs=None, window: int = DEFAULT_WINDOW,
                       fsync: str = FSYNC_ALWAYS) -> FleetSoakResult:
    """Run a fleet soak by windowed streaming ingestion.

    Same admission stream, routing decisions, and (unbudgeted)
    packings as :func:`run_fleet_soak`, but the stream is never
    materialized: tenants are generated lazily, routed ``window`` at a
    time, and each window's per-shard groups are admitted through
    :meth:`ShardController.place_batch` on long-lived in-process
    controllers.  The crash drill (``config.crash_shard``) fires once
    the victim shard has acked half its expected share and verifies
    recovery by packing fingerprint.  ``fsync`` is forwarded to every
    shard's WAL (the default ``always`` keeps the single-controller
    durability contract; ``rotate``/``never`` trade it for ingest
    speed on throughput drills).
    """
    cfg = config if config is not None else FleetSoakConfig()
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    root = Path(root)
    load_budget = (None if cfg.max_servers_per_shard is None
                   else float(cfg.max_servers_per_shard))
    router = PlacementRouter(cfg.shards, policy=cfg.policy,
                             seed=cfg.seed, batch_size=window,
                             load_budget=load_budget)
    write_fleet_meta(root, shards=cfg.shards, gamma=cfg.gamma,
                     capacity=1.0, policy=cfg.policy, seed=cfg.seed,
                     max_servers_per_shard=cfg.max_servers_per_shard)

    def fresh(shard_id: int) -> ShardController:
        return ShardController(
            shard_id, shard_directory(root, shard_id), gamma=cfg.gamma,
            max_servers=cfg.max_servers_per_shard, obs=obs,
            fsync=fsync, segment_records=cfg.segment_records)

    shards = [_StreamShard(sid, fresh(sid))
              for sid in range(cfg.shards)]
    crash_at = (None if cfg.crash_shard is None
                else max(1, cfg.tenants // (2 * cfg.shards)))

    def crash_drill(shard: _StreamShard) -> None:
        # SIGKILL semantics, as in the batch soak's worker: abandon
        # the controller, recover from the shard's own WAL +
        # checkpoint, and verify every acked placement survived — here
        # by comparing the recovered packing's fingerprint against the
        # running digest (the streaming soak keeps no acked map).
        shard.controller.crash()
        controller = fresh(shard.shard_id)
        divergences: List[str] = []
        got = _recovered_packing(controller.placement, shard.foreign)
        if got.count != shard.packing.count:
            divergences.append(f"recovered {got.count} tenants, "
                               f"acked {shard.packing.count}")
        got_fp, acked_fp = got.hexdigest(), shard.packing.hexdigest()
        if got_fp != acked_fp:
            divergences.append(
                f"recovered packing fingerprint {got_fp[:16]}..., "
                f"acked {acked_fp[:16]}...")
        shard.crash_report = _crash_report(
            shard.packing.count, shard.packing.count, divergences,
            controller.recovered_state)
        shard.controller = controller

    spill_placed = spill_unplaced = 0
    stream = stream_tenants(UniformLoad(cfg.max_load), cfg.tenants,
                            seed=cfg.seed)
    started = time.perf_counter()
    for groups in router.stream(stream):
        for shard_id in sorted(groups):
            shard = shards[shard_id]
            if (crash_at is not None and cfg.crash_shard == shard_id
                    and shard.crash_report is None
                    and shard.packing.count >= crash_at):
                crash_drill(shard)
            group_started = time.perf_counter()
            outcomes = shard.controller.place_batch(groups[shard_id])
            shard.elapsed += time.perf_counter() - group_started
            for tenant, servers in outcomes:
                if servers is not None:
                    shard.packing.feed(tenant.tenant_id, servers)
                    continue
                # Budget refusal: spill immediately, ring order.
                shard.refused.append((tenant.tenant_id, tenant.load))
                router.record_remove(shard_id, tenant.load)
                for sibling in router.spill_order(tenant, shard_id):
                    try:
                        shards[sibling].controller.place(tenant)
                    except ShardSaturatedError:
                        continue
                    router.record_place(sibling, tenant.load)
                    shards[sibling].foreign.add(tenant.tenant_id)
                    spill_placed += 1
                    break
                else:
                    spill_unplaced += 1
    if crash_at is not None:
        # Imbalanced routing can leave the victim short of the
        # trigger; the drill still fires once (post-stream) so every
        # configured soak exercises recovery.
        victim = shards[cfg.crash_shard]
        if victim.crash_report is None and victim.packing.count > 0:
            crash_drill(victim)

    outcomes = [_close_shard(shard.controller, shard.packing.hexdigest(),
                             shard.elapsed, shard.refused,
                             shard.crash_report)
                for shard in shards]
    wall = time.perf_counter() - started

    servers = sum(o.servers for o in outcomes)
    total_load = sum(o.total_load for o in outcomes)
    nonempty = sum(o.nonempty_servers for o in outcomes)
    utilization = (total_load / nonempty) if nonempty else 0.0
    placed = sum(o.tenants for o in outcomes) - spill_placed
    aggregate = sum(shard.packing.count / shard.elapsed
                    for shard in shards
                    if shard.elapsed > 0 and shard.packing.count)
    p50, p99 = _place_latency(obs)
    return FleetSoakResult(
        config=cfg, outcomes=outcomes, placed=placed,
        spill_placed=spill_placed, spill_unplaced=spill_unplaced,
        servers=servers, utilization=utilization,
        wall_seconds=wall,
        tenants_per_second=(cfg.tenants / wall if wall > 0 else 0.0),
        aggregate_tenants_per_second=aggregate,
        latency_p50=p50, latency_p99=p99, router=router.snapshot())
