"""Whole-shard chaos drill: crash a shard mid-traffic, recover, verify.

:func:`run_fleet_chaos` drives a live :class:`~repro.fleet.fleet.
PlacementFleet` with a seeded place/remove/resize stream, periodically
rebalances, and at a configured operation **crashes a whole shard**
(kill -9 semantics: the controller is abandoned with no shutdown).
Traffic continues while the shard is down — new tenants route around
it, operations on its tenants surface as typed
:class:`~repro.errors.ShardDownError` — and after a configured
downtime the shard recovers from its own WAL + checkpoint.

The drill then asserts the fleet's whole-shard conformance contract:

* **Replica-for-replica recovery.**  Every placement the crashed
  shard acked before the kill is back on exactly the servers it was
  acked on (the same differential the single-controller crash drills
  run, scoped to the victim shard).
* **Router reconciliation.**  The router's estimate for the victim is
  rebuilt from the recovered truth, and any migration torn by the
  crash is repaired deterministically.
* **Typed errors only.**  Every error the stream observes is a
  :class:`~repro.errors.ReproError` subclass — never a hang, never an
  untyped exception.
* **Audit-clean finish.**  Every shard passes the robustness audit at
  the end, and the per-shard stores checkpoint cleanly.

Failpoints (``fleet.route``, ``fleet.spill``, ``fleet.rebalance``)
armed via :func:`repro.faults.injected` or ``REPRO_FAULTS`` fire
inside the drill and surface typed; the report counts them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .. import faults
from ..core.tenant import Tenant
from ..errors import (ConfigurationError, FaultInjected, ReproError,
                      ShardDownError, ShardSaturatedError)
from ..store import diff_acked
from .fleet import PlacementFleet

PathLike = Union[str, Path]


@dataclass(frozen=True)
class FleetChaosConfig:
    """Parameters of one whole-shard chaos drill."""

    operations: int = 300
    shards: int = 3
    policy: str = "least-loaded"
    gamma: int = 2
    seed: int = 0
    #: Operation index at which the victim shard is killed
    #: (default: half the stream).
    crash_at: Optional[int] = None
    #: Victim shard (default: the busiest shard at crash time,
    #: ties to the lowest id — deterministic).
    crash_shard: Optional[int] = None
    #: Operations the victim stays down (default: an eighth of the
    #: stream, at least 1).
    downtime: Optional[int] = None
    #: Run the cross-shard rebalancer every this many operations
    #: (0 disables).
    rebalance_every: int = 64
    max_load: float = 0.5
    max_servers_per_shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.operations < 4:
            raise ConfigurationError(
                f"operations must be >= 4, got {self.operations}")
        if self.shards < 2:
            raise ConfigurationError(
                f"the drill needs >= 2 shards, got {self.shards}")
        crash_at = self.resolved_crash_at
        if not (0 < crash_at < self.operations):
            raise ConfigurationError(
                f"crash_at must be in (0, {self.operations}), got "
                f"{crash_at}")
        if crash_at + self.resolved_downtime >= self.operations:
            raise ConfigurationError(
                "the victim would never recover: crash_at + downtime "
                "must be < operations")

    @property
    def resolved_crash_at(self) -> int:
        return (self.operations // 2 if self.crash_at is None
                else self.crash_at)

    @property
    def resolved_downtime(self) -> int:
        return (max(1, self.operations // 8) if self.downtime is None
                else self.downtime)


@dataclass
class FleetChaosReport:
    """Everything one drill run observed."""

    config: FleetChaosConfig
    store_dir: str
    counts: Dict[str, int] = field(default_factory=dict)
    #: Typed errors by exception class name.
    typed_errors: Dict[str, int] = field(default_factory=dict)
    migrations: int = 0
    crash_shard: int = -1
    #: Placements acked by the victim before the kill.
    acked_before_crash: int = 0
    #: Replica-for-replica divergences found at recovery (must be []).
    divergences: List[str] = field(default_factory=list)
    #: Torn-migration repairs applied at recovery.
    reconciled: List[object] = field(default_factory=list)
    audits: Dict[int, bool] = field(default_factory=dict)
    fired: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def repro_line(self) -> str:
        return (
            "PYTHONPATH=src python -c \"from repro.fleet.chaos import "
            "FleetChaosConfig, run_fleet_chaos; print(run_fleet_chaos("
            f"'STORE_DIR', {self.config!r}))\"")

    def __str__(self) -> str:
        ops = ", ".join(f"{k}={v}"
                        for k, v in sorted(self.counts.items()))
        typed = sum(self.typed_errors.values())
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"FleetChaosReport({verdict}: {ops}; shard "
            f"{self.crash_shard} crashed with "
            f"{self.acked_before_crash} acked placements, "
            f"{len(self.divergences)} divergence(s), "
            f"{self.migrations} migration(s), {typed} typed error(s), "
            f"audits {sum(self.audits.values())}/{len(self.audits)} "
            f"clean, {self.elapsed:.2f}s)")


def _count(table: Dict[str, int], key: str) -> None:
    table[key] = table.get(key, 0) + 1


def run_fleet_chaos(store_dir: PathLike,
                    config: Optional[FleetChaosConfig] = None,
                    obs=None) -> FleetChaosReport:
    """Run the whole-shard chaos drill; see the module docstring."""
    cfg = config if config is not None else FleetChaosConfig()
    rng = np.random.default_rng(cfg.seed)
    report = FleetChaosReport(config=cfg, store_dir=str(store_dir))
    fired_before = dict(faults.FAILPOINTS.fired_counts())
    started = time.perf_counter()

    fleet = PlacementFleet(
        Path(store_dir), shards=cfg.shards, gamma=cfg.gamma,
        policy=cfg.policy, seed=cfg.seed,
        max_servers_per_shard=cfg.max_servers_per_shard, obs=obs)
    crash_at = cfg.resolved_crash_at
    recover_at = crash_at + cfg.resolved_downtime
    alive: Dict[int, float] = {}
    next_id = 0
    victim: Optional[int] = None
    acked_victim: Dict[int, List[int]] = {}

    def typed(err: ReproError) -> None:
        _count(report.typed_errors, type(err).__name__)

    try:
        for op_index in range(cfg.operations):
            if op_index == crash_at:
                if cfg.crash_shard is not None:
                    victim = cfg.crash_shard
                else:
                    victim = min(
                        range(cfg.shards),
                        key=lambda s: (
                            -fleet.shards[s].placement.num_tenants, s))
                placement = fleet.shards[victim].placement
                for tid in placement.tenant_ids:
                    by_index = placement.tenant_servers(tid)
                    acked_victim[tid] = [by_index[i]
                                         for i in sorted(by_index)]
                report.crash_shard = victim
                report.acked_before_crash = len(acked_victim)
                fleet.crash_shard(victim)
                _count(report.counts, "crash")
            elif op_index == recover_at and victim is not None:
                controller = fleet.recover_shard(victim)
                report.divergences.extend(
                    diff_acked(controller.placement, acked_victim))
                report.reconciled = fleet.reconcile()
                _count(report.counts, "recover")

            draw = rng.random()
            try:
                if (cfg.rebalance_every
                        and op_index
                        and op_index % cfg.rebalance_every == 0):
                    moves = fleet.rebalance()
                    report.migrations += len(moves)
                    _count(report.counts, "rebalance")
                elif draw < 0.55 or not alive:
                    load = round(float(
                        rng.uniform(0.02, cfg.max_load)), 6)
                    fleet.place(Tenant(next_id, load))
                    alive[next_id] = load
                    next_id += 1
                    _count(report.counts, "place")
                elif draw < 0.80:
                    tid = sorted(alive)[int(
                        rng.integers(len(alive)))]
                    fleet.remove(tid)
                    del alive[tid]
                    _count(report.counts, "remove")
                else:
                    tid = sorted(alive)[int(
                        rng.integers(len(alive)))]
                    load = round(float(
                        rng.uniform(0.02, cfg.max_load)), 6)
                    fleet.update_load(tid, load)
                    alive[tid] = load
                    _count(report.counts, "resize")
            except ShardDownError as err:
                typed(err)
                _count(report.counts, "refused_down")
            except ShardSaturatedError as err:
                typed(err)
                _count(report.counts, "refused_saturated")
            except FaultInjected as err:
                typed(err)
                _count(report.counts, "fault")

            # Audit every live shard after every operation (down
            # shards are skipped) — the same "audit after every op"
            # discipline the single-controller chaos soak uses; small
            # drills keep it affordable.
            for shard_id, audit_report in fleet.audit_all().items():
                if not audit_report.ok:
                    report.failures.append(
                        f"op {op_index}: shard {shard_id} audit "
                        f"violated")

        if victim is not None and fleet.shards[victim] is None:
            report.failures.append("victim shard never recovered")
        for shard_id, audit_report in fleet.audit_all().items():
            report.audits[shard_id] = audit_report.ok
            if not audit_report.ok:
                report.failures.append(
                    f"final audit violated on shard {shard_id}")
        if report.divergences:
            report.failures.append(
                f"{len(report.divergences)} replica-for-replica "
                f"divergence(s) at recovery")
        fleet.checkpoint_all()
    finally:
        fleet.close()

    fired_after = faults.FAILPOINTS.fired_counts()
    report.fired = {
        name: count - fired_before.get(name, 0)
        for name, count in fired_after.items()
        if count - fired_before.get(name, 0) > 0}
    report.elapsed = time.perf_counter() - started
    return report
