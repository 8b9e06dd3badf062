"""consolidate: the paper's placement-time experiment, in memory.

Uniform(0, 0.6] arrivals at gamma 2 through ``consolidate()`` for all
five algorithms, with no store and no metrics registry.  The stream is
fed in ``DEFAULT_BATCH``-sized calls, which is exactly how
``consolidate()`` chunks a whole stream, so each call's latency is one
``place_batch`` chunk.  A round places the stream once per algorithm,
in an order rotated from round to round, and generates the stream
afresh before each trial (that is the set-up time).  The gated figures
are each algorithm's throughput over all its trials and the mean of
their median chunk latencies, combined across algorithms by geometric
mean.

The traced round needs the program's feasibility counters, so it
attaches a ``MetricsRegistry``; the untraced round does not.  The
overhead a traced run prints is therefore that of obs and tracing
together.
"""

from __future__ import annotations

import gc

from repro import OnlinePlacementAlgorithm, audit, make_algorithm
from repro.obs import MetricsRegistry
from repro.workloads import UniformLoad, generate_sequence

from .harness import (fingerprint, geomean, mean, median, percentile,
                      perf, replica_map, replica_problems, throughput,
                      timing_line)

GAMMA = 2
MAX_LOAD = 0.6
ALGORITHMS = (("cubefit", {"num_classes": 10}), ("rfi", {}),
              ("bestfit", {}), ("firstfit", {}), ("nextfit", {}))
SIZES = {"full": {"tenants": 25000}, "toy": {"tenants": 400}}
CHUNK = OnlinePlacementAlgorithm.DEFAULT_BATCH


def stream(seed: int, tenants: int):
    """The arrivals, in ``CHUNK``-sized calls."""
    arrivals = generate_sequence(UniformLoad(max_load=MAX_LOAD), tenants,
                                 seed=seed).tenants
    return [arrivals[i:i + CHUNK] for i in range(0, tenants, CHUNK)]


def place_stream(ctx, name: str, kwargs: dict, chunks, traced: bool):
    """Consolidate the stream with one fresh algorithm instance."""
    tr = ctx.tracer
    algorithm = make_algorithm(name, GAMMA, **kwargs)
    registry = MetricsRegistry() if traced else None
    algorithm.attach_obs(registry)
    latencies = []
    for number, chunk in enumerate(chunks):
        began = perf()
        tr.call("algorithms.consolidate", algorithm.consolidate, chunk,
                rid=f"{name}:{number}")
        latencies.append(perf() - began)
    return algorithm, registry, latencies


def verify(ctx, name: str, algorithm) -> float:
    """Audit, replica and recorded-fingerprint checks; returns audit s."""
    began = perf()
    report = ctx.tracer.call("core.audit", audit, algorithm.placement,
                             algorithm.guaranteed_failures)
    audit_s = perf() - began
    ctx.check(f"{name} audit", [] if report.ok else [str(report)])
    mapping = replica_map(algorithm.placement)
    ctx.check(f"{name} replicas", replica_problems(mapping, GAMMA))
    ctx.expect(f"{name}.fingerprint", fingerprint(mapping))
    ctx.expect(f"{name}.servers", algorithm.placement.num_servers)
    return audit_s


def trial(ctx, name: str, kwargs: dict, tenants: int, traced: bool
          ) -> dict:
    """Generate the stream, place it with one algorithm and check it.

    Returns figures only, so the trial's fleet is garbage once it ends.
    """
    began = perf()
    chunks = ctx.tracer.call("workloads.generate_sequence", stream,
                             ctx.seed, tenants)
    setup_s = perf() - began
    algorithm, registry, latencies = place_stream(ctx, name, kwargs,
                                                  chunks, traced)
    ctx.attempted += tenants
    return {"setup_s": setup_s, "latencies": latencies,
            "rate": tenants / sum(latencies),
            "audit_s": verify(ctx, name, algorithm),
            "servers": algorithm.placement.num_servers,
            "utilization": algorithm.placement.utilization(),
            "snapshot": registry.snapshot() if traced else {}}


def run(ctx) -> None:
    tenants = SIZES[ctx.size]["tenants"]
    setups, traced_setups = [], []
    rates = {name: [] for name, _ in ALGORITHMS}
    chunk_s = {name: [] for name, _ in ALGORITHMS}
    #: Median chunk latency of each untraced trial, per algorithm.
    chunk_p50 = {name: [] for name, _ in ALGORITHMS}
    traced_rates = {}
    layer = {"batch": [], "place_total": 0.0, "place_count": 0,
             "screened": 0, "exact": 0, "audit": []}
    rounds = []
    while ctx.another_pass(len(rounds), rounds):
        began = perf()
        traced = ctx.start_pass(len(rounds))
        shift = len(rounds) % len(ALGORITHMS)
        for name, kwargs in ALGORITHMS[shift:] + ALGORITHMS[:shift]:
            # Untimed: the previous trial's fleet holds reference cycles,
            # and collecting them must not land in this trial's timings.
            gc.collect()
            got = trial(ctx, name, kwargs, tenants, traced)
            if not traced:
                setups.append(got["setup_s"])
                rates[name].append(got["rate"])
                chunk_s[name].extend(got["latencies"])
                chunk_p50[name].append(median(got["latencies"]))
                ctx.layer[f"algorithms.{name}.servers"] = got["servers"]
                ctx.layer[f"algorithms.{name}.utilization"] = \
                    got["utilization"]
                continue
            traced_setups.append(got["setup_s"])
            traced_rates[name] = got["rate"]
            snap = got["snapshot"]
            place = snap.get("placement.place.seconds", {})
            layer["place_total"] += place.get("total", 0.0)
            layer["place_count"] += place.get("count", 0)
            layer["screened"] += snap.get("feasibility.screened",
                                          {}).get("value", 0)
            layer["exact"] += snap.get("feasibility.exact",
                                       {}).get("value", 0)
            layer["batch"].extend(got["latencies"])
            layer["audit"].append(got["audit_s"])
        rounds.append(perf() - began)

    per_algo = {name: median(rates[name]) for name in rates}
    overall = {name: throughput(rates[name]) for name in rates}
    for name, rate in per_algo.items():
        ctx.report.append(f"{name}.tenants_per_s {rate:.1f} 1/s  (median "
                          f"of {len(rates[name])} trial(s) x {tenants} "
                          f"tenants; over all trials {overall[name]:.1f})")
        ctx.report.append(timing_line(f"{name} chunk latency",
                                      chunk_s[name], "ms", 1e3))
    ctx.report.append(timing_line("setup_s", setups, "s"))
    ctx.e2e["ops_per_s"] = geomean(list(overall.values()))
    ctx.e2e["p50_ms"] = geomean([mean(chunk_p50[name])
                                 for name in chunk_p50]) * 1e3
    ctx.e2e["setup_s"] = median(setups)
    if not ctx.trace:
        return
    ctx.overhead = geomean(list(per_algo.values())) / geomean(
        list(traced_rates.values())) - 1.0
    ctx.overhead_of = "obs + tracing"
    lay = ctx.layer
    lay["workloads.gen_s"] = median(traced_setups)
    for name, rate in per_algo.items():
        lay[f"algorithms.{name}.tenants_per_s"] = rate
    lay["algorithms.batch_p50_ms"] = percentile(layer["batch"], 50) * 1e3
    lay["algorithms.batch_p99_ms"] = percentile(layer["batch"], 99) * 1e3
    if layer["place_count"]:
        lay["algorithms.place_us"] = (layer["place_total"]
                                      / layer["place_count"] * 1e6)
    probes = layer["screened"] + layer["exact"]
    lay["algorithms.probes_per_tenant"] = probes / (tenants * len(ALGORITHMS))
    if probes:
        lay["algorithms.exact_frac"] = layer["exact"] / probes
    lay["core.audit_ms"] = median(layer["audit"]) * 1e3
