"""Canonical placement-speed bench scenarios and baseline checking.

One place defines the benched algorithm lineup (:data:`FACTORIES`), the
timing protocol (:func:`time_scenario`), the feasibility fast-path
profile (:func:`feasibility_profile`) and the baseline tolerance check
(:func:`check_against_baseline`).  Both front-ends —
``tools/run_bench.py`` (writes ``BENCH_placement.json``) and
``benchmarks/bench_placement_speed.py`` (pytest-benchmark) — import
from here so the committed baseline and the pytest bench can never
drift apart on what "the cubefit scenario" means.

Timings are machine-dependent; ``servers`` and ``utilization`` are
deterministic and meaningful to diff, as are the
``feasibility.screened`` / ``feasibility.exact`` counters — the
screened fast path must answer the same placements with strictly fewer
exact top-``f`` evaluations, and the recorded ratio is the proof.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from ..algorithms.base import OnlinePlacementAlgorithm
from ..algorithms.naive import (RobustBestFit, RobustFirstFit,
                                RobustNextFit)
from ..algorithms.rfi import RFI
from ..core.cubefit import CubeFit
from ..errors import ConfigurationError
from ..obs import MetricsRegistry
from ..par import pmap
from ..workloads.distributions import UniformLoad
from ..workloads.sequences import generate_sequence

BENCH_FORMAT = "repro-bench"
#: Version 3 drops the v1 alias block (top-level ``n_tenants`` +
#: ``scenarios`` duplicating the first scale): every scale lives only
#: under ``scales``/``feasibility``.  :func:`check_against_baseline`
#: reads v2 and v3 payloads interchangeably.
BENCH_VERSION = 3

#: The benched lineup.  Keys are scenario names in the baseline file.
FACTORIES: Dict[str, Callable[[], OnlinePlacementAlgorithm]] = {
    "cubefit": lambda: CubeFit(gamma=2, num_classes=10),
    "rfi": lambda: RFI(gamma=2),
    "bestfit": lambda: RobustBestFit(gamma=2),
    "firstfit": lambda: RobustFirstFit(gamma=2),
    "nextfit": lambda: RobustNextFit(gamma=2),
}

#: Tenant counts timed by default: the historical 2k scenario, a 10k
#: scenario that stresses the screened fast path at fleet scale, and a
#: 100k scenario where the candidate index's vectorized queries carry
#: tens of thousands of servers per query.
DEFAULT_SCALES: Sequence[int] = (2000, 10000, 100000)
DEFAULT_ROUNDS = 3
BENCH_SEED = 0
BENCH_DISTRIBUTION_MAX = 0.6

#: Sharded-fleet scenarios timed by default: ``(tenants, shards)``.
#: The 100k stream over 8 bestfit shards demonstrates the fleet
#: claim — aggregate throughput above the best single-controller
#: scenario at any scale — and the 1M stream over 16 shards exercises
#: the windowed streaming ingestion at the fleet-soak acceptance
#: scale (timed with one round; see :func:`run_bench`).
DEFAULT_FLEET_SCALES: Sequence[tuple] = ((100000, 8), (1000000, 16))

#: Fleet rows at or above this tenant count are timed with a single
#: round regardless of ``rounds`` — a 1M-tenant ingestion is minutes
#: of deterministic compute per round, and the packing fields the
#: baseline check cares about are round-invariant anyway.
FLEET_SINGLE_ROUND_FLOOR = 500000


def bench_sequence(n_tenants: int):
    """The bench workload: ``Uniform(0, 0.6]`` loads, fixed seed."""
    return generate_sequence(UniformLoad(BENCH_DISTRIBUTION_MAX),
                             n_tenants, seed=BENCH_SEED)


def time_scenario(factory: Callable[[], OnlinePlacementAlgorithm],
                  sequence, rounds: int = DEFAULT_ROUNDS) -> Dict:
    """Consolidate ``sequence`` ``rounds`` times on fresh instances.

    ``tenants_per_second`` uses the *fastest* round: consolidation is
    deterministic compute, so the minimum is the least-noise estimate
    on a shared machine, while ``seconds_mean`` keeps the noisy average
    for context.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    seconds: List[float] = []
    algo = None
    for _ in range(rounds):
        algo = factory()
        start = time.perf_counter()
        algo.consolidate(sequence)
        seconds.append(time.perf_counter() - start)
    mean = sum(seconds) / len(seconds)
    return {
        "seconds_mean": round(mean, 6),
        "seconds_min": round(min(seconds), 6),
        "tenants_per_second": round(len(sequence) / max(min(seconds),
                                                        1e-9)),
        "servers": algo.placement.num_servers,
        "utilization": round(algo.placement.utilization(), 4),
    }


def feasibility_profile(factory: Callable[[], OnlinePlacementAlgorithm],
                        sequence) -> Dict:
    """Screened-vs-exact feasibility counters for one consolidation.

    Returns ``{"screened": n, "exact": m, "screened_fraction": f}`` —
    the fraction of single-placement feasibility decisions the bound
    screen answered without an exact top-``f`` evaluation.
    """
    registry = MetricsRegistry()
    algo = factory()
    algo.attach_obs(registry)
    algo.consolidate(sequence)
    snapshot = registry.snapshot()
    screened = int(snapshot.get("feasibility.screened",
                                {"value": 0})["value"])
    exact = int(snapshot.get("feasibility.exact",
                             {"value": 0})["value"])
    checks = screened + exact
    return {
        "screened": screened,
        "exact": exact,
        "screened_fraction": round(screened / checks, 4) if checks
        else 0.0,
    }


#: Tenants routed + admitted per :func:`fleet_scenario` window.
FLEET_BENCH_WINDOW = 4096


def fleet_scenario(n_tenants: int, shards: int,
                   rounds: int = DEFAULT_ROUNDS,
                   policy: str = "hash",
                   window: int = FLEET_BENCH_WINDOW) -> Dict:
    """Time the sharded-fleet streaming pipeline on the bench workload.

    The bench stream is drawn lazily
    (:func:`~repro.workloads.sequences.stream_tenants`), routed
    ``window`` tenants at a time through a deterministic
    :class:`~repro.fleet.router.PlacementRouter`, and each window's
    per-shard groups are placed tenant by tenant on the shard's own
    ``RobustBestFit`` — in memory, like every other bench
    scenario (the durable fleet with WAL + crash drills is
    :func:`repro.fleet.soak.run_fleet_soak`), and never with more
    than one window of the stream resident.  Two rates come out:

    * ``tenants_per_second`` — the full stream over the summed shard
      time, i.e. what one core executing shards back to back sustains;
    * ``aggregate_tenants_per_second`` — the sum of per-shard rates,
      i.e. what the fleet sustains with one core per shard (shards
      share nothing, so this is linear scale-out, and it is the number
      the "sharding beats one big controller" claim is about).

    ``servers`` and ``utilization`` are deterministic, like every
    other scenario: routing depends only on admission order.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    from ..fleet.router import PlacementRouter
    from ..workloads.sequences import stream_tenants

    best_wall = None
    best_aggregate = 0.0
    algos = None
    for _ in range(rounds):
        router = PlacementRouter(shards, policy=policy,
                                 seed=BENCH_SEED, batch_size=window)
        stream = stream_tenants(UniformLoad(BENCH_DISTRIBUTION_MAX),
                                n_tenants, seed=BENCH_SEED)
        round_algos = [RobustBestFit(gamma=2) for _ in range(shards)]
        shard_seconds = [0.0] * shards
        shard_counts = [0] * shards
        for groups in router.stream(stream):
            for shard in sorted(groups):
                members = groups[shard]
                place = round_algos[shard].place
                start = time.perf_counter()
                for tenant in members:
                    place(tenant)
                shard_seconds[shard] += time.perf_counter() - start
                shard_counts[shard] += len(members)
        wall = sum(shard_seconds)
        if best_wall is None or wall < best_wall:
            best_wall = wall
            best_aggregate = sum(
                count / max(seconds, 1e-9)
                for count, seconds in zip(shard_counts, shard_seconds)
                if count)
            algos = round_algos
    total_load = sum(a.placement.total_load() for a in algos)
    nonempty = sum(a.placement.num_nonempty_servers for a in algos)
    return {
        "shards": shards,
        "policy": policy,
        "seconds_min": round(best_wall, 6),
        "tenants_per_second": round(n_tenants / max(best_wall, 1e-9)),
        "aggregate_tenants_per_second": round(best_aggregate),
        "servers": sum(a.placement.num_servers for a in algos),
        "utilization": round(total_load / nonempty, 4) if nonempty
        else 0.0,
    }


def run_bench(scales: Sequence[int] = DEFAULT_SCALES,
              rounds: int = DEFAULT_ROUNDS,
              jobs: int = 1,
              names: Optional[Sequence[str]] = None,
              fleet_scales: Sequence[tuple] = DEFAULT_FLEET_SCALES,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Time every scenario at every scale; return the v3 payload.

    ``jobs > 1`` times the scenarios of each scale on a forked worker
    pool — each worker times in its own process, so wall-clock drops
    while the deterministic fields (servers, utilization, feasibility
    counters) are unaffected.  On a loaded or single-core machine keep
    ``jobs=1`` for the least-noise timings.

    Every scale lives under ``scales`` (timings + packing) and
    ``feasibility`` (screened/exact ratios); fleet rows under
    ``fleet``.  The v2 alias block (top-level ``n_tenants`` +
    ``scenarios`` duplicating the first scale) is gone —
    :func:`check_against_baseline` still reads both versions.  Fleet
    rows at :data:`FLEET_SINGLE_ROUND_FLOOR` tenants or more are
    timed with a single round.
    """
    if not scales:
        raise ConfigurationError("no scales to bench")
    chosen = sorted(names) if names else sorted(FACTORIES)
    unknown = set(chosen) - set(FACTORIES)
    if unknown:
        raise ConfigurationError(
            f"unknown bench scenarios: {sorted(unknown)}")
    say = progress if progress is not None else (lambda line: None)
    per_scale: Dict[str, Dict] = {}
    feasibility: Dict[str, Dict] = {}
    for n_tenants in scales:
        sequence = bench_sequence(n_tenants)

        def one_scenario(name: str, _obs) -> Dict:
            timing = time_scenario(FACTORIES[name], sequence, rounds)
            timing["feasibility"] = feasibility_profile(
                FACTORIES[name], sequence)
            return timing

        timed = pmap(one_scenario, chosen, jobs=jobs)
        scale_key = str(n_tenants)
        per_scale[scale_key] = {}
        feasibility[scale_key] = {}
        for name, timing in zip(chosen, timed):
            feasibility[scale_key][name] = timing.pop("feasibility")
            per_scale[scale_key][name] = timing
            fp = feasibility[scale_key][name]
            say(f"[{n_tenants}] {name:>9}: "
                f"{timing['tenants_per_second']:>8,} tenants/s  "
                f"{timing['servers']:>5} servers  "
                f"util {timing['utilization']:.4f}  "
                f"screened {fp['screened_fraction']:.1%}")
    fleet: Dict[str, Dict] = {}
    for n_tenants, shards in fleet_scales:
        fleet_rounds = (1 if n_tenants >= FLEET_SINGLE_ROUND_FLOOR
                        else rounds)
        timing = fleet_scenario(n_tenants, shards, rounds=fleet_rounds)
        fleet[f"{n_tenants}x{shards}"] = timing
        say(f"[{n_tenants}] fleet x{shards}: "
            f"{timing['tenants_per_second']:>8,} tenants/s wall, "
            f"{timing['aggregate_tenants_per_second']:>8,} aggregate  "
            f"{timing['servers']:>5} servers  "
            f"util {timing['utilization']:.4f}")
    payload = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "rounds": rounds,
        "seed": BENCH_SEED,
        "distribution": f"uniform(0,{BENCH_DISTRIBUTION_MAX}]",
        "scales": per_scale,
        "feasibility": feasibility,
    }
    if fleet:
        payload["fleet"] = fleet
    return payload


def check_against_baseline(payload: Dict, baseline: Dict,
                           slowdown_tolerance: float = 3.0
                           ) -> List[str]:
    """Compare a fresh bench run against a committed baseline.

    Returns a list of problems (empty = pass):

    * packing quality — ``servers`` and ``utilization`` — must match
      the baseline *exactly* (consolidation is deterministic; any drift
      is a behaviour change, not noise);
    * throughput must not be more than ``slowdown_tolerance`` times
      slower than the baseline (a deliberately loose floor: timings on
      shared CI boxes are noisy, and the check is meant to catch a
      10x-regression bug, not a 10% wobble).

    Scales and scenarios present in only one of the two payloads are
    skipped — a baseline predating a new scale stays usable.
    """
    if slowdown_tolerance <= 1.0:
        raise ConfigurationError(
            f"slowdown_tolerance must be > 1, got {slowdown_tolerance}")
    problems: List[str] = []
    base_scales = baseline.get("scales") \
        or {str(baseline.get("n_tenants")): baseline.get("scenarios", {})}
    new_scales = payload.get("scales") \
        or {str(payload.get("n_tenants")): payload.get("scenarios", {})}
    for scale_key, base_scenarios in sorted(base_scales.items()):
        new_scenarios = new_scales.get(scale_key)
        if new_scenarios is None:
            continue
        for name, base in sorted(base_scenarios.items()):
            fresh = new_scenarios.get(name)
            if fresh is None:
                continue
            where = f"[{scale_key}] {name}"
            if fresh["servers"] != base["servers"]:
                problems.append(
                    f"{where}: servers {fresh['servers']} != baseline "
                    f"{base['servers']}")
            if abs(fresh["utilization"] - base["utilization"]) > 5e-5:
                problems.append(
                    f"{where}: utilization {fresh['utilization']} != "
                    f"baseline {base['utilization']}")
            floor = base["tenants_per_second"] / slowdown_tolerance
            if fresh["tenants_per_second"] < floor:
                problems.append(
                    f"{where}: {fresh['tenants_per_second']} tenants/s "
                    f"is more than {slowdown_tolerance:g}x slower than "
                    f"baseline {base['tenants_per_second']}")
    # Fleet scenarios follow the same rules: packing exact, aggregate
    # throughput within the slowdown floor.  A baseline predating the
    # fleet section (or a run that skipped it) is silently compatible.
    for key, base in sorted(baseline.get("fleet", {}).items()):
        fresh = payload.get("fleet", {}).get(key)
        if fresh is None:
            continue
        where = f"[fleet {key}]"
        if fresh["servers"] != base["servers"]:
            problems.append(
                f"{where}: servers {fresh['servers']} != baseline "
                f"{base['servers']}")
        if abs(fresh["utilization"] - base["utilization"]) > 5e-5:
            problems.append(
                f"{where}: utilization {fresh['utilization']} != "
                f"baseline {base['utilization']}")
        floor = base["aggregate_tenants_per_second"] / slowdown_tolerance
        if fresh["aggregate_tenants_per_second"] < floor:
            problems.append(
                f"{where}: {fresh['aggregate_tenants_per_second']} "
                f"aggregate tenants/s is more than "
                f"{slowdown_tolerance:g}x slower than baseline "
                f"{base['aggregate_tenants_per_second']}")
    return problems
