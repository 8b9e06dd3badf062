"""churn-durable: place/remove/resize on a durable, instrumented controller.

RobustBestFit (gamma 2) with a ``DurableStore`` (fsync ``always``) and a
``MetricsRegistry`` attached, as the serve daemon runs it.  Each pass
starts from the steady Table I population, runs a fixed operation
stream with ``checkpoint_and_compact`` at a fixed op cadence (the
stream's end leaves a WAL tail), then recovers cold from disk.
"""

from __future__ import annotations

import shutil

from repro import Tenant, audit
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.store import (FSYNC_ALWAYS, DurableStore, diff_placements,
                         load_checkpoint)

from .harness import (fingerprint, median, percentile, perf, replica_map,
                      replica_problems, timing_line, written_bytes)
from .population import GAMMA, op_stream, population, prefill

SIZES = {
    "full": {"population": 20000, "ops": 7000, "cadence": 1500},
    "toy": {"population": 300, "ops": 200, "cadence": 80},
}
VERB_SPANS = {"place": "algorithms.place", "remove": "algorithms.remove",
              "update_load": "algorithms.resize"}


class TimedStore(DurableStore):
    """DurableStore timing every ``log_*`` call that appends a record."""

    def __init__(self, directory, tracer, fsync: str) -> None:
        super().__init__(directory, fsync=fsync)
        self.tracer = tracer
        self.append_seconds = []

    def _timed(self, method, *args) -> None:
        before = self.wal.next_seq
        start = perf()
        method(*args)
        end = perf()
        if self.wal.next_seq != before:
            self.append_seconds.append(end - start)
            self.tracer.record("store.append", start, end)

    def log_open_through(self, next_server_id):
        self._timed(super().log_open_through, next_server_id)

    def log_place(self, tenant_id, load, servers):
        self._timed(super().log_place, tenant_id, load, servers)

    def log_remove(self, tenant_id):
        self._timed(super().log_remove, tenant_id)

    def log_update_load(self, tenant_id, load, servers):
        self._timed(super().log_update_load, tenant_id, load, servers)


def apply_op(algorithm, verb: str, tenant: int, load: float) -> None:
    if verb == "place":
        algorithm.place(Tenant(tenant, load))
    elif verb == "remove":
        algorithm.remove(tenant)
    else:
        algorithm.update_load(tenant, load)


def cold_recover(directory):
    """Open the store from disk and recover the audited placement."""
    store = DurableStore(directory, create=False)
    try:
        return store.recover()
    finally:
        store.close()


def check_recovery(ctx, directory, live):
    """Cold-recover ``directory`` and compare it with ``live``.

    A recovery that raises (a corrupt WAL record, a failed audit) or
    that differs from the live placement is a failed check; returns
    the recovered state, or ``None`` when recovery raised.
    """
    try:
        recovered = ctx.tracer.call("store.recover", cold_recover,
                                    directory)
    except ReproError as err:
        ctx.check("cold recover", [f"{type(err).__name__}: {err}"])
        return None
    ctx.check("cold recover equals live placement",
              diff_placements(recovered.placement, live))
    return recovered


def one_pass(ctx, index: int, size: dict) -> dict:
    traced = ctx.start_pass(index)
    tr = ctx.tracer
    directory = ctx.workdir / f"churn-{index}"
    start = perf()
    tenants = tr.call("workloads.population", population, ctx.seed,
                      size["population"])
    ops = tr.call("workloads.op_stream", op_stream, ctx.seed,
                  size["population"], size["ops"])
    gen_s = perf() - start
    algorithm = tr.call("algorithms.prefill", prefill, tenants)
    ctx.attempted += len(tenants)
    registry = MetricsRegistry()
    if traced:
        store = tr.call("store.create", TimedStore, directory, tr,
                        FSYNC_ALWAYS)
    else:
        store = DurableStore(directory, fsync=FSYNC_ALWAYS)
    algorithm.attach_store(store)
    algorithm.attach_obs(registry)
    tr.call("store.checkpoint", store.checkpoint, algorithm.placement)
    setup_s = perf() - start

    latency = {verb: [] for verb in VERB_SPANS}
    checkpoint_s = []
    #: (ops/s, median place latency) of each checkpoint interval.
    blocks = []
    wchar = written_bytes()
    fsyncs = ctx.fsyncs.calls
    ops_start = block_start = perf()
    place_mark = 0
    for number, (verb, tenant, load) in enumerate(ops, 1):
        began = perf()
        try:
            tr.call(VERB_SPANS[verb], apply_op, algorithm, verb, tenant,
                    load, rid=number)
        except ReproError as err:
            ctx.op_failed(f"op {number} {verb} {tenant}: {err}")
        latency[verb].append(perf() - began)
        if number % size["cadence"] == 0:
            began = perf()
            tr.call("store.checkpoint_and_compact",
                    store.checkpoint_and_compact, algorithm.placement)
            checkpoint_s.append(perf() - began)
            blocks.append((size["cadence"] / (perf() - block_start),
                           median(latency["place"][place_mark:])))
            block_start, place_mark = perf(), len(latency["place"])
    ops_s = perf() - ops_start
    wchar = written_bytes() - wchar
    fsyncs = ctx.fsyncs.calls - fsyncs
    ctx.attempted += len(ops)
    store.close()

    began = perf()
    recovered = check_recovery(ctx, directory, algorithm.placement)
    recover_s = perf() - began
    began = perf()
    report = tr.call("core.audit", audit, algorithm.placement,
                     algorithm.guaranteed_failures)
    audit_s = perf() - began
    ctx.check("audit", [] if report.ok else [str(report)])
    mapping = replica_map(algorithm.placement)
    ctx.check("replicas", replica_problems(mapping, GAMMA))
    ctx.expect("fingerprint", fingerprint(mapping))
    ctx.expect("servers", algorithm.placement.num_servers)

    result = {"setup_s": setup_s, "gen_s": gen_s, "ops_s": ops_s,
              "blocks": blocks,
              "rate": len(ops) / ops_s, "latency": latency,
              "checkpoint_s": checkpoint_s, "recover_s": recover_s,
              "audit_s": audit_s, "wchar": wchar, "fsyncs": fsyncs,
              "ops": len(ops), "seconds": perf() - start,
              "registry": registry, "recovered": recovered is not None,
              "replayed": recovered.records_replayed if recovered else 0}
    if traced:
        result["append_seconds"] = store.append_seconds
        result["checkpoint_bytes"] = store.checkpoint_path.stat().st_size
    if traced and recovered is not None:
        began = perf()
        tr.call("store.load_checkpoint", load_checkpoint,
                store.checkpoint_path)
        result["load_s"] = perf() - began
        began = perf()
        tr.call("core.audit", audit, recovered.placement,
                recovered.failures)
        result["recover_audit_s"] = perf() - began
    shutil.rmtree(directory)
    return result


def run(ctx) -> None:
    size = SIZES[ctx.size]
    passes = []
    while ctx.another_pass(len(passes), [p["seconds"] for p in passes]):
        passes.append(one_pass(ctx, len(passes), size))
    measured = ctx.untraced(passes)
    rates = [p["rate"] for p in measured]
    places = [s for p in measured for s in p["latency"]["place"]]
    blocks = [b for p in measured for b in p["blocks"]]
    recover = [p["recover_s"] for p in measured]
    setups = [p["setup_s"] for p in measured]
    ctx.e2e["ops_per_s"] = median([b[0] for b in blocks])
    ctx.e2e["p50_ms"] = median([b[1] for b in blocks]) * 1e3
    ctx.e2e["setup_s"] = median(setups)
    ctx.report += [
        f"churn.ops_per_s {median(rates):.1f} 1/s  (median of "
        f"{len(rates)} pass(es) x {size['ops']} ops; median of the "
        f"run's {len(blocks)} checkpoint intervals "
        f"{ctx.e2e['ops_per_s']:.1f})",
        f"churn.p50_ms {ctx.e2e['p50_ms']:.4f} ms  (median of the "
        f"{len(blocks)} checkpoint intervals' median place latency)",
        timing_line("place latency", places, "ms", 1e3),
        timing_line("recover_s", recover, "s"),
        timing_line("setup_s", setups, "s"),
    ]
    if not ctx.trace:
        return
    plain, traced = passes[0], passes[-1]
    ctx.overhead = plain["rate"] / traced["rate"] - 1.0
    lay = ctx.layer
    lay["workloads.gen_s"] = traced["gen_s"]
    for verb, name in VERB_SPANS.items():
        short = name.split(".")[1]
        lay[f"algorithms.{short}_p50_us"] = percentile(
            traced["latency"][verb], 50) * 1e6
        lay[f"algorithms.{short}_p99_us"] = percentile(
            traced["latency"][verb], 99) * 1e6
    snap = traced["registry"].snapshot()
    place = snap.get("placement.place.seconds", {})
    if place.get("count"):
        lay["algorithms.place_us"] = place["total"] / place["count"] * 1e6
    screened = snap.get("feasibility.screened", {}).get("value", 0)
    exact = snap.get("feasibility.exact", {}).get("value", 0)
    placed = sum(snap.get(f"placement.{k}", {}).get("value", 0)
                 for k in ("place", "resize"))
    if placed:
        lay["algorithms.probes_per_tenant"] = (screened + exact) / placed
    if screened + exact:
        lay["algorithms.exact_frac"] = exact / (screened + exact)
    lay["core.audit_ms"] = traced["audit_s"] * 1e3
    appends = traced["append_seconds"]
    lay["store.append_p50_us"] = percentile(appends, 50) * 1e6
    lay["store.append_p99_us"] = percentile(appends, 99) * 1e6
    lay["store.appends"] = len(appends)
    lay["store.write_bytes_per_op"] = traced["wchar"] / traced["ops"]
    lay["store.fsyncs_per_op"] = traced["fsyncs"] / traced["ops"]
    lay["store.checkpoint_ms"] = median(traced["checkpoint_s"]) * 1e3
    lay["store.checkpoint_bytes"] = traced["checkpoint_bytes"]
    lay["store.recover_s"] = traced["recover_s"]
    if traced["recovered"]:
        lay["store.recover_load_ms"] = traced["load_s"] * 1e3
        lay["store.replay_records"] = traced["replayed"]
        lay["store.recover_audit_ms"] = traced["recover_audit_s"] * 1e3
