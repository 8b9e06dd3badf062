"""fleet-stream: the streaming soak that ``repro fleet-soak`` runs.

Each pass calls :func:`repro.fleet.run_streaming_soak`, the path
``repro fleet-soak --jobs 1`` takes.  Lazily generated Uniform(0, 0.6]
arrivals go through a hash ``PlacementRouter.stream`` in windows of
``WINDOW`` and are admitted by per-shard ``ShardController.place_batch``
calls (fsync ``always``, a metrics registry attached).  A per-shard
server budget makes the fullest shards refuse some tenants, which
spill to siblings in ring order.  Shard ``CRASH_SHARD`` is crashed
mid-stream and recovered; at the end every shard is checkpointed and
audited.  The checks come from the soak's result, and from reopening
every shard's store after the soak has closed it.

The soak builds its own router and shards, so for the length of a
pass the benchmark wraps the public methods the soak calls on them
(see :func:`timed_fleet`).
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager

from repro.errors import ReproError
from repro.fleet import (FleetSoakConfig, PlacementRouter, ShardController,
                         run_streaming_soak, shard_directory)
from repro.obs import MetricsRegistry
from repro.store import FSYNC_ALWAYS

from .churn import cold_recover
from .harness import (mean, median, percentile, perf, replica_map,
                      replica_problems, throughput, timing_line)

GAMMA = 2
SHARDS = 8
CRASH_SHARD = 3
#: Tenants routed and admitted per streaming window.
WINDOW = 512
SIZES = {
    "full": {"tenants": 8000, "budget": 455},
    "toy": {"tenants": 400, "budget": 24},
}


@contextmanager
def timed_fleet(tr, batches: list):
    """Time the soak's calls into the router and its shards.

    Every ``ShardController.place_batch`` call's duration is appended
    to ``batches``.  With the tracer on, routing, each draw from the
    tenant stream, shard creation and recovery, ``place_batch``,
    ``checkpoint_and_compact`` and ``audit`` are spans as well.  The
    original methods are restored on exit.
    """
    saved = {"stream": PlacementRouter.stream,
             "init": ShardController.__init__,
             "place_batch": ShardController.place_batch,
             "checkpoint": ShardController.checkpoint_and_compact,
             "audit": ShardController.audit}

    def place_batch(shard, tenants):
        began = perf()
        outcomes = saved["place_batch"](shard, tenants)
        end = perf()
        batches.append(end - began)
        tr.record("fleet.place_batch", began, end, rid=shard.shard_id)
        return outcomes

    def stream(router, tenants):
        source = iter(tenants)

        def drawn():
            while True:
                tenant = tr.call("workloads.stream_tenants", next, source,
                                 None)
                if tenant is None:
                    return
                yield tenant

        windows = saved["stream"](router, drawn())
        while True:
            groups = tr.call("fleet.route", next, windows, None)
            if groups is None:
                return
            yield groups

    def init(shard, *args, **kwargs):
        began = perf()
        saved["init"](shard, *args, **kwargs)
        tr.record("fleet.recover" if shard.recovered_state is not None
                  else "fleet.open_shard", began, perf(), rid=shard.shard_id)

    ShardController.place_batch = place_batch
    if tr.enabled:
        PlacementRouter.stream = stream
        ShardController.__init__ = init
        ShardController.checkpoint_and_compact = lambda shard: tr.call(
            "fleet.checkpoint", saved["checkpoint"], shard, rid=shard.shard_id)
        ShardController.audit = lambda shard: tr.call(
            "fleet.audit", saved["audit"], shard, rid=shard.shard_id)
    try:
        yield
    finally:
        PlacementRouter.stream = saved["stream"]
        ShardController.__init__ = saved["init"]
        ShardController.place_batch = saved["place_batch"]
        ShardController.checkpoint_and_compact = saved["checkpoint"]
        ShardController.audit = saved["audit"]


def check_soak(ctx, result) -> None:
    """The soak's own verdicts, and its packing against the record."""
    ctx.check("every shard audits clean",
              [f"shard {o.shard_id}" for o in result.outcomes
               if not o.audit_ok])
    ctx.check("crash-drilled shard recovers the acked packing",
              result.crash_divergences if result.crash_outcome
              else ["no crash drill ran"])
    ctx.check("crash-drilled shard audit",
              [] if result.crash_outcome is None
              or result.crash_outcome.crash["audit_ok"]
              else ["recovered state failed its audit"])
    tenants = result.config.tenants
    ctx.check("every tenant placed once",
              [f"{result.placed} placed + {result.spill_placed} spilled + "
               f"{result.spill_unplaced} refused != {tenants}"]
              if result.placed + result.spill_placed
              + result.spill_unplaced != tenants else [])
    for _ in range(result.spill_unplaced):
        ctx.op_failed("tenant refused by every shard")
    ctx.expect("fingerprints", [o.fingerprint for o in result.outcomes])
    ctx.expect("servers", [o.servers for o in result.outcomes])


def check_stores(ctx, root, result) -> None:
    """Reopen every shard's store: it must recover (and so audit) and
    hold what the soak reported, each tenant with gamma replicas."""
    for outcome in result.outcomes:
        name = f"shard {outcome.shard_id} store"
        try:
            state = cold_recover(shard_directory(root, outcome.shard_id))
        except ReproError as err:
            ctx.check(f"{name} recovers", [f"{type(err).__name__}: {err}"])
            continue
        placement = state.placement
        ctx.check(f"{name} holds the soak's packing",
                  [] if (placement.num_tenants, placement.num_servers)
                  == (outcome.tenants, outcome.servers) else
                  [f"{placement.num_tenants} tenants on "
                   f"{placement.num_servers} servers, soak reported "
                   f"{outcome.tenants} on {outcome.servers}"])
        ctx.check(f"{name} replicas",
                  replica_problems(replica_map(placement), GAMMA))


def one_pass(ctx, index: int, size: dict) -> dict:
    ctx.start_pass(index)
    tr = ctx.tracer
    root = ctx.workdir / f"fleet-{index}"
    config = FleetSoakConfig(shards=SHARDS, tenants=size["tenants"],
                             seed=ctx.seed, gamma=GAMMA,
                             max_servers_per_shard=size["budget"],
                             crash_shard=CRASH_SHARD)
    registry = MetricsRegistry()
    batches = []
    fsyncs = ctx.fsyncs.calls
    start = perf()
    with timed_fleet(tr, batches):
        result = tr.call("fleet.streaming_soak", run_streaming_soak, root,
                         config, registry, WINDOW, FSYNC_ALWAYS)
    call_s = perf() - start
    fsyncs = ctx.fsyncs.calls - fsyncs
    ctx.attempted += size["tenants"]
    check_soak(ctx, result)
    check_stores(ctx, root, result)
    shutil.rmtree(root)
    counts = [o.tenants for o in result.outcomes]
    return {"setup_s": call_s - result.wall_seconds,
            "rate": result.tenants_per_second, "batches": batches,
            "spilled": result.spill_placed + result.spill_unplaced,
            "imbalance": max(counts) / (sum(counts) / SHARDS),
            "fsyncs": fsyncs, "tenants": size["tenants"],
            "registry": registry, "seconds": perf() - start}


def run(ctx) -> None:
    size = SIZES[ctx.size]
    passes = []
    while ctx.another_pass(len(passes), [p["seconds"] for p in passes]):
        passes.append(one_pass(ctx, len(passes), size))
    measured = ctx.untraced(passes)
    rates = [p["rate"] for p in measured]
    batches = [s for p in measured for s in p["batches"]]
    setups = [p["setup_s"] for p in measured]
    ctx.e2e["ops_per_s"] = throughput(rates)
    ctx.e2e["p50_ms"] = mean([median(p["batches"]) for p in measured]) * 1e3
    ctx.e2e["setup_s"] = median(setups)
    ctx.report += [
        f"fleet.tenants_per_s {median(rates):.1f} 1/s  (median of "
        f"{len(rates)} pass(es) x {size['tenants']} tenants, {SHARDS} "
        f"shards, window {WINDOW}; over all passes "
        f"{ctx.e2e['ops_per_s']:.1f})",
        timing_line("shard place_batch", batches, "ms", 1e3),
        timing_line("setup_s", setups, "s"),
        f"spilled {measured[-1]['spilled']} tenant(s) per pass",
    ]
    if not ctx.trace:
        return
    plain, traced = passes[0], passes[-1]
    ctx.overhead = plain["rate"] / traced["rate"] - 1.0
    lay = ctx.layer
    total = ctx.tracer.total
    lay["workloads.gen_s"] = total("workloads.stream_tenants")
    lay["fleet.route_s"] = total("fleet.route") - lay["workloads.gen_s"]
    lay["fleet.admit_s"] = total("fleet.place_batch")
    lay["fleet.checkpoint_s"] = total("fleet.checkpoint")
    lay["fleet.audit_s"] = total("fleet.audit")
    lay["fleet.recover_s"] = total("fleet.recover")
    lay["fleet.spilled"] = traced["spilled"]
    lay["fleet.imbalance"] = traced["imbalance"]
    snap = traced["registry"].snapshot()
    place = snap.get("placement.place.seconds", {})
    screened = snap.get("feasibility.screened", {}).get("value", 0)
    exact = snap.get("feasibility.exact", {}).get("value", 0)
    if place.get("count"):
        lay["algorithms.place_us"] = place["total"] / place["count"] * 1e6
        lay["algorithms.probes_per_tenant"] = \
            (screened + exact) / place["count"]
    if screened + exact:
        lay["algorithms.exact_frac"] = exact / (screened + exact)
    lay["store.appends"] = snap.get("store.wal_append", {}).get("value", 0)
    lay["store.fsyncs_per_op"] = traced["fsyncs"] / traced["tenants"]
    lay["algorithms.batch_p50_ms"] = percentile(traced["batches"], 50) * 1e3
    lay["algorithms.batch_p99_ms"] = percentile(traced["batches"], 99) * 1e3
