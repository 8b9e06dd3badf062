"""repro.fleet — sharded multi-controller placement fleet.

Partitions the server estate into N shards, each a full durable
controller (:mod:`repro.store` reused unchanged: per-shard WAL +
checkpoint lineage under ``<root>/shard-NNN/``), behind a
deterministic :class:`~repro.fleet.router.PlacementRouter` with
windowed streaming admission, spillover, and a cross-shard rebalancer
whose migrations are audited move by move.  Whole-shard failure is a
typed, drilled event: see :func:`~repro.fleet.chaos.run_fleet_chaos`.

Entry points:

* :class:`PlacementFleet` — live serial fleet (router + shards +
  rebalancer + crash/recover).
* :func:`run_streaming_soak` — what ``repro fleet-soak`` runs by
  default (``--jobs 1``): lazily generated tenants are routed window
  by window into per-shard ``place_batch`` chunks, so million-tenant
  streams never materialize; measures p50/p99 placement latency and
  SIGKILL-drills one shard.
* :func:`run_fleet_soak` — what ``--jobs N > 1`` runs: route the whole
  stream once, execute shards in parallel via :func:`repro.par.pmap`
  (bit-identical to serial), then re-admit budget spills serially;
  unbudgeted, its packings match the streaming soak's.
* :func:`run_fleet_chaos` — whole-shard crash mid-traffic with
  replica-for-replica recovery verification.
* CLI: ``repro fleet-soak`` / ``repro fleet-status``.
"""

from .chaos import FleetChaosConfig, FleetChaosReport, run_fleet_chaos
from .fleet import (FLEET_META_NAME, PlacementFleet, read_fleet_meta,
                    write_fleet_meta)
from .rebalance import Migration, rebalance
from .router import POLICIES, PlacementRouter, stable_hash
from .shard import ShardController, shard_directory
from .soak import (DEFAULT_WINDOW, FleetSoakConfig, FleetSoakResult,
                   ShardOutcome, run_fleet_soak, run_streaming_soak)

__all__ = [
    "PlacementFleet", "FLEET_META_NAME", "read_fleet_meta",
    "write_fleet_meta",
    "PlacementRouter", "POLICIES", "stable_hash",
    "ShardController", "shard_directory",
    "Migration", "rebalance",
    "FleetSoakConfig", "FleetSoakResult", "ShardOutcome",
    "run_fleet_soak", "run_streaming_soak", "DEFAULT_WINDOW",
    "FleetChaosConfig", "FleetChaosReport", "run_fleet_chaos",
]
