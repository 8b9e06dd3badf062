"""Command-line entry points: regenerate any figure or table.

Usage::

    python -m repro figure5            # Section V-B failure experiments
    python -m repro figure6            # Section V-C consolidation savings
    python -m repro table1             # Table I dollar savings
    python -m repro theorem2           # competitive-ratio sweep
    python -m repro calibrate          # Section IV load-model calibration
    python -m repro chaos              # fault-injection conformance soak
    python -m repro all                # everything, in order

Set ``REPRO_FULL_SCALE=1`` for paper-scale runs (50,000 tenants x 10
runs, 69 servers, five-minute windows); the default is a laptop-scale
profile with identical shapes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from .analysis.report import (figure5_table, figure6_table,
                              table1_table, theorem2_table)
from .cluster.calibration import calibrate_load_model
from .errors import ConfigurationError, ReproError, SimulationError
from .sim.figures import figure5, figure6, table1, theorem2
from .sim.scenarios import current_scale


def _render_svg(args: argparse.Namespace, name: str,
                renderer_factory) -> None:
    """Write a result figure as SVG when --svg DIR was given."""
    if args.svg is None:
        return
    from pathlib import Path
    directory = Path(args.svg)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.svg"
    renderer_factory().save(path)
    print(f"[wrote {path}]")


def _export(args: argparse.Namespace, name: str, table_factory) -> None:
    """Write a result table as CSV when --csv DIR was given.

    ``table_factory`` is a thunk so that table construction is skipped
    entirely when no export was requested.
    """
    if args.csv is None:
        return
    from pathlib import Path
    directory = Path(args.csv)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.csv"
    table_factory().to_csv(path)
    print(f"[wrote {path}]")


def _run_figure5(args: argparse.Namespace) -> None:
    result = figure5(seed=args.seed)
    print(result)
    _export(args, "figure5", lambda: figure5_table(result))
    from .viz.figures import render_figure5
    _render_svg(args, "figure5", lambda: render_figure5(result))


def _run_figure6(args: argparse.Namespace) -> None:
    result = figure6(base_seed=args.seed)
    print(result)
    _export(args, "figure6", lambda: figure6_table(result))
    from .viz.figures import render_figure6
    _render_svg(args, "figure6", lambda: render_figure6(result))


def _run_table1(args: argparse.Namespace) -> None:
    result = table1(base_seed=args.seed)
    print(result)
    _export(args, "table1", lambda: table1_table(result))


def _run_theorem2(args: argparse.Namespace) -> None:
    result = theorem2()
    print(result)
    _export(args, "theorem2", lambda: theorem2_table(result))
    from .viz.figures import render_theorem2
    _render_svg(args, "theorem2", lambda: render_theorem2(result))


def _run_scaling(args: argparse.Namespace) -> None:
    from .algorithms.rfi import RFI
    from .core.cubefit import CubeFit
    from .sim.timing import scaling_study
    from .workloads.distributions import UniformLoad

    profile = current_scale()
    top = max(profile.sim_tenants, 2000)
    counts = [max(top // 16, 100), top // 4, top]
    factories = {
        "cubefit": lambda: CubeFit(gamma=2, num_classes=10),
        "rfi": lambda: RFI(gamma=2),
    }
    study = scaling_study(factories, UniformLoad(0.3), counts,
                          seed=args.seed)
    print(study)
    savings = study.savings_series("rfi", "cubefit")
    print("\nCubeFit savings over RFI by scale (the asymptotic claim):")
    for n, value in savings:
        print(f"  n={n:>7,}: {value:+.1f}%")
    _export(args, "scaling", lambda: study.to_table())
    from .viz.figures import render_scaling
    _render_svg(args, "scaling", lambda: render_scaling(study))


def _run_churn(args: argparse.Namespace) -> None:
    from .algorithms.rfi import RFI
    from .core.cubefit import CubeFit
    from .sim.churn import ChurnConfig, run_churn
    from .workloads.distributions import UniformLoad

    config = ChurnConfig(arrival_rate=8.0, mean_lifetime=30.0,
                         horizon=150.0, sample_every=15.0,
                         seed=args.seed)
    print(f"Churn study: Poisson arrivals at {config.arrival_rate}/t, "
          f"exponential lifetimes (mean {config.mean_lifetime}t), "
          f"~{config.expected_population:.0f} tenants in steady state\n")
    for name, factory in (
            ("cubefit", lambda: CubeFit(gamma=2, num_classes=10)),
            ("rfi", lambda: RFI(gamma=2))):
        result = run_churn(factory, UniformLoad(0.4), config)
        robust = "robust" if result.final_robust else "VIOLATED"
        print(f"{name:>8}: {result.arrivals} arrivals / "
              f"{result.departures} departures; steady-state "
              f"{result.mean_steady_servers:.1f} servers at "
              f"{result.mean_steady_utilization:.2f} utilization "
              f"({robust})")


def _run_soak(args: argparse.Namespace) -> None:
    from .algorithms.rfi import RFI
    from .core.cubefit import CubeFit
    from .sim.soak import SoakConfig, run_soak

    config = SoakConfig(operations=400, seed=args.seed)
    print("Soak: randomized place/remove/resize/fail+recover/repack "
          "stream,\nrobustness audited after every operation.\n")
    for name, factory in (
            ("cubefit", lambda: CubeFit(gamma=2, num_classes=10)),
            ("rfi", lambda: RFI(gamma=2))):
        store = None
        if args.store:
            from pathlib import Path

            from .store import DurableStore
            store = DurableStore(Path(args.store) / name)
        try:
            result = run_soak(factory, config, store=store,
                              checkpoint_every=100 if store else None)
        finally:
            # Closed even when the soak (or an interrupt) aborts the
            # run — an open WAL handle must never outlive the command.
            if store is not None:
                store.close()
        if store is not None:
            print(f"[durable store: {Path(args.store) / name}]")
        print(result)
        if not result.ok:
            raise SystemExit(1)


def _run_checkpoint(args: argparse.Namespace) -> None:
    from .store import DurableStore

    if not args.store:
        raise ConfigurationError(
            "the checkpoint command requires --store DIR")
    with DurableStore(args.store, create=False) as store:
        state = store.recover()
        path, removed = store.checkpoint_and_compact(state.placement)
    print(f"recovered {state.placement.num_tenants} tenants on "
          f"{state.placement.num_servers} servers "
          f"(replayed {state.records_replayed} WAL records on top of "
          f"checkpoint seq {state.checkpoint_seq})")
    print(f"checkpoint written: {path} (covers {state.next_seq} "
          f"records); {len(removed)} WAL segment(s) compacted")


def _run_recover(args: argparse.Namespace) -> None:
    from .store import recover

    if not args.store:
        raise ConfigurationError(
            "the recover command requires --store DIR")
    state = recover(args.store)
    print(f"store:     {args.store}")
    print(f"algorithm: {state.algorithm or '(unknown)'}  "
          f"gamma={state.gamma}  capacity={state.capacity}")
    print(f"recovered: {state.placement.num_tenants} tenants on "
          f"{state.placement.num_servers} servers "
          f"({state.placement.num_nonempty_servers} non-empty)")
    print(f"replay:    checkpoint seq {state.checkpoint_seq} + "
          f"{state.records_replayed} WAL record(s); next seq "
          f"{state.next_seq}")
    print(f"audit:     OK at {state.failures} failure(s); min slack "
          f"{state.audit.min_slack:.6f}")


def _run_metrics(args: argparse.Namespace) -> None:
    from .core.cubefit import CubeFit
    from .obs import EventJournal, MetricsRegistry, replay
    from .sim.churn import ChurnConfig, run_churn
    from .workloads.distributions import UniformLoad

    registry = MetricsRegistry(journal=EventJournal())
    config = ChurnConfig(arrival_rate=6.0, mean_lifetime=20.0,
                         horizon=60.0, sample_every=10.0,
                         seed=args.seed)
    print("Observability demo: an instrumented churn run "
          "(CubeFit, gamma=2).\n")
    result = run_churn(lambda: CubeFit(gamma=2, num_classes=10),
                       UniformLoad(0.4), config, obs=registry)
    print(registry.to_table().to_text())
    summary = replay(registry.journal)
    ops = ", ".join(f"{k}={v}" for k, v in sorted(summary.counts.items()))
    print(f"\njournal: {summary.total} events [{ops}]")
    print(f"run: {result.arrivals} arrivals / {result.departures} "
          f"departures, final_robust={result.final_robust}")
    _export(args, "metrics", registry.to_table)


def _run_explain(args: argparse.Namespace) -> None:
    from .algorithms.rfi import RFI
    from .analysis.diagnostics import explain
    from .core.cubefit import CubeFit
    from .workloads.distributions import UniformLoad
    from .workloads.sequences import generate_sequence
    from .workloads.trace_io import load_trace

    if args.trace:
        sequence = load_trace(args.trace)
        print(f"loaded {len(sequence)} tenants from {args.trace}\n")
    else:
        sequence = generate_sequence(UniformLoad(0.5), 2000,
                                     seed=args.seed)
        print(f"no --trace given; using {len(sequence)} tenants "
              f"~ {sequence.description}\n")
    for name, factory in (
            ("cubefit", lambda: CubeFit(gamma=2, num_classes=10)),
            ("rfi", lambda: RFI(gamma=2))):
        algo = factory()
        algo.consolidate(sequence)
        failures = None if name == "cubefit" else 1
        report = explain(algo.placement, failures=failures)
        print(f"=== {name}: {algo.placement.num_servers} servers ===")
        print(report)
        print()


def _run_sweep(args: argparse.Namespace) -> None:
    from .sim.sensitivity import (k_sensitivity, mu_sensitivity,
                                  sla_sensitivity)
    from .workloads.distributions import UniformLoad

    distribution = UniformLoad(0.6)
    print(f"Parameter sweeps on {distribution.name} "
          f"({args.tenants} tenants, jobs={args.jobs}).\n")
    mu_curve = mu_sensitivity(distribution, n_tenants=args.tenants,
                              seed=args.seed, jobs=args.jobs)
    print(mu_curve)
    best_mu = mu_curve.best()
    print(f"best mu: {best_mu.parameter} ({best_mu.servers} servers)\n")
    k_curve = k_sensitivity(distribution, n_tenants=args.tenants,
                            seed=args.seed, jobs=args.jobs)
    print(k_curve)
    best_k = k_curve.best()
    print(f"best K: {best_k.parameter:.0f} ({best_k.servers} servers)")
    _export(args, "sweep_mu", mu_curve.to_table)
    _export(args, "sweep_k", k_curve.to_table)
    sla_curve = sla_sensitivity(UniformLoad(0.9), n_tenants=args.tenants,
                                seed=args.seed, jobs=args.jobs)
    print(f"\n{sla_curve}")
    best_sla = sla_curve.best()
    print(f"cheapest robust point: target {best_sla.parameter} "
          f"({best_sla.servers} servers)")
    _export(args, "sweep_sla", sla_curve.to_table)


#: Instance size the opt-gap command uses when --tenants is left at the
#: fleet-scale global default: the exact oracle solves 8-tenant
#: instances in milliseconds, certifying every row.
OPT_GAP_DEFAULT_TENANTS = 8

#: Largest instance the opt-gap command accepts; beyond this even the
#: budget-exhausted interval stops being informative.
OPT_GAP_MAX_TENANTS = 64


def _run_opt_gap(args: argparse.Namespace) -> None:
    from .analysis.optimum import SearchBudget
    from .sim.optgap import run_opt_gap
    from .workloads.distributions import (NormalizedClients, UniformLoad,
                                          ZipfClients)

    if args.gamma < 1:
        raise ConfigurationError(f"gamma must be >= 1, got {args.gamma}")
    tenants = args.tenants
    if tenants == 2000:  # the global default targets sweep-scale runs
        tenants = OPT_GAP_DEFAULT_TENANTS
    if tenants > OPT_GAP_MAX_TENANTS:
        raise ConfigurationError(
            f"opt-gap solves an exact optimum; --tenants must be <= "
            f"{OPT_GAP_MAX_TENANTS}, got {tenants}")
    budget = None
    if args.budget is not None:
        budget = SearchBudget(max_nodes=args.budget)
    distributions = [
        UniformLoad(0.6),
        NormalizedClients(ZipfClients(exponent=3.0)),
    ]
    report = run_opt_gap(distributions, n_tenants=tenants,
                         runs=args.runs, gamma=args.gamma,
                         seed=args.seed, budget=budget, jobs=args.jobs)
    print(report)
    if report.certified_rows < len(report.rows):
        print(f"[{len(report.rows) - report.certified_rows} row(s) hit "
              f"the node budget: their optimum column is a certified "
              f"[LB, UB] interval and their gap an upper bound]")
    _export(args, "opt_gap", report.to_table)


def _run_chaos(args: argparse.Namespace) -> None:
    from .algorithms.naive import RobustBestFit
    from .sim.chaos import (ChaosConfig, default_schedule, parse_schedule,
                            run_chaos_soak)

    if args.gamma < 1:
        raise ConfigurationError(f"gamma must be >= 1, got {args.gamma}")
    if args.schedule and args.faults:
        raise ConfigurationError(
            "--schedule and --faults are mutually exclusive: --schedule "
            "replays an exact run, --faults derives one from the seed")
    if args.schedule:
        schedule = parse_schedule(args.schedule)
        if not schedule:
            raise ConfigurationError("--schedule is empty")
    elif args.faults:
        names = tuple(sorted({part.strip()
                              for part in args.faults.split(",")
                              if part.strip()}))
        if not names:
            raise ConfigurationError("--faults is empty")
        schedule = default_schedule(args.ops, args.seed,
                                    failpoints=names)
    else:
        schedule = ()  # default_schedule over every soak failpoint
    config = ChaosConfig(operations=args.ops, seed=args.seed,
                         schedule=schedule)

    if args.store:
        from pathlib import Path
        store_dir = Path(args.store) / "chaos"
    else:
        import tempfile
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        store_dir = tmp.name
    from .obs import MetricsRegistry
    print(f"Chaos soak: bestfit gamma={args.gamma}, {args.ops} ops, "
          f"seed {args.seed}; every fault must surface typed or leave "
          f"an audit-clean placement.\n")
    report = run_chaos_soak(lambda: RobustBestFit(gamma=args.gamma),
                            store_dir, config, obs=MetricsRegistry())
    for line in report.error_log:
        print(f"  {line}")
    print()
    print(report)
    if not report.ok:
        for failure in report.failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        reason = (f"{len(report.failures)} conformance failure(s)"
                  if report.failures else "post-fault audit failed")
        raise SimulationError(
            f"{reason}; reproduce: {report.repro_line}")


def _run_serve(args: argparse.Namespace) -> None:
    import signal

    from .obs import MetricsRegistry
    from .serve import PlacementServer, ServeConfig

    if not args.store:
        raise ConfigurationError("the serve command requires --store DIR")
    if not args.socket:
        raise ConfigurationError(
            "the serve command requires --socket PATH")
    config = ServeConfig(gamma=args.gamma,
                         queue_size=args.queue_size,
                         checkpoint_interval=args.checkpoint_interval,
                         crash_mode="exit",
                         shard_id=args.shard_id)
    server = PlacementServer(args.store, args.socket, config,
                             obs=MetricsRegistry())
    for signum in (signal.SIGTERM, signal.SIGINT):
        # Graceful path: drain the queue, checkpoint, close the WAL.
        signal.signal(signum,
                      lambda _sig, _frm: server.request_shutdown())
    server.start()
    print(f"serving placements on {args.socket} "
          f"(store {args.store}, gamma {server.algorithm.gamma}, queue "
          f"{args.queue_size}, checkpoint every "
          f"{args.checkpoint_interval or 'never'}s)", flush=True)
    server.run()
    print("serve: drained, checkpointed, closed")


def _run_serve_send(args: argparse.Namespace) -> None:
    import json

    from .serve import ServeClient
    from .serve.protocol import VERBS

    if not args.socket:
        raise ConfigurationError(
            "the serve-send command requires --socket PATH")
    if args.verb not in VERBS:
        raise ConfigurationError(
            f"unknown verb {args.verb!r}; known: {sorted(VERBS)}")
    params = {}
    if "tenant" in VERBS[args.verb]:
        if args.tenant is None:
            raise ConfigurationError(
                f"verb {args.verb!r} requires --tenant ID")
        params["tenant"] = args.tenant
    if "load" in VERBS[args.verb]:
        if args.load is None:
            raise ConfigurationError(
                f"verb {args.verb!r} requires --load X")
        params["load"] = args.load
    with ServeClient(args.socket) as client:
        result = client.call(args.verb, **params)
    print(json.dumps(result, sort_keys=True, indent=2))


def _run_fleet_soak(args: argparse.Namespace) -> None:
    from .fleet import (FleetSoakConfig, run_fleet_soak,
                        run_streaming_soak)
    from .obs import MetricsRegistry

    if not args.store:
        raise ConfigurationError(
            "the fleet-soak command requires --store DIR (fleet root)")
    config = FleetSoakConfig(shards=args.shards, tenants=args.tenants,
                             policy=args.policy, gamma=args.gamma,
                             seed=args.seed)
    streaming = args.jobs == 1
    mode = (f"streaming ingestion, window {args.window}" if streaming
            else f"jobs={args.jobs}")
    print(f"Fleet soak: {args.tenants} tenants over {args.shards} "
          f"shard(s) under {args.store}, policy {args.policy}, "
          f"{mode}; shard {config.crash_shard} is "
          f"SIGKILL-drilled mid-stream.\n")
    if streaming:
        result = run_streaming_soak(args.store, config,
                                    obs=MetricsRegistry(),
                                    window=args.window,
                                    fsync=args.fsync)
    else:
        result = run_fleet_soak(args.store, config,
                                obs=MetricsRegistry(), jobs=args.jobs)
    print(result)
    if not result.ok:
        raise SimulationError(
            f"fleet soak failed conformance: audits_ok="
            f"{result.audits_ok}, divergences="
            f"{len(result.crash_divergences)}, accounted="
            f"{result.placed + result.spill_placed + result.spill_unplaced}"
            f"/{config.tenants}")


def _run_fleet_status(args: argparse.Namespace) -> None:
    from .fleet import read_fleet_meta, shard_directory
    from .store import recover

    if not args.store:
        raise ConfigurationError(
            "the fleet-status command requires --store DIR (fleet root)")
    meta = read_fleet_meta(args.store)
    shards = int(meta["shards"])
    print(f"fleet root: {args.store}")
    print(f"geometry:   {shards} shard(s), gamma {meta['gamma']}, "
          f"policy {meta['policy']}, seed {meta['seed']}, "
          f"budget {meta.get('max_servers_per_shard') or 'unbounded'}")
    tenants = servers = 0
    for shard_id in range(shards):
        directory = shard_directory(args.store, shard_id)
        if not (directory / "meta.json").exists():
            print(f"  shard {shard_id:3d}: (no store yet) {directory}")
            continue
        # recover() raises RobustnessViolation (exit 1) on a failed
        # audit, so every shard printed here is audit-clean.
        state = recover(directory)
        tenants += state.placement.num_tenants
        servers += state.placement.num_servers
        print(f"  shard {shard_id:3d}: "
              f"{state.placement.num_tenants} tenants on "
              f"{state.placement.num_servers} servers; checkpoint seq "
              f"{state.checkpoint_seq} + {state.records_replayed} WAL "
              f"record(s); audit OK")
    print(f"fleet:      {tenants} tenants on {servers} servers; "
          f"audits all clean")


def _run_calibrate(args: argparse.Namespace) -> None:
    result = calibrate_load_model()
    print("Section IV calibration (simulated cluster):")
    for point in result.boundary:
        print(f"  {point.tenants:3d} tenant(s): boundary at "
              f"{point.clients} clients")
    model = result.model
    print(f"  fitted: load = {model.delta:.4f} * clients + "
          f"{model.beta:.4f} per tenant")
    print(f"  C (max clients, one tenant) = "
          f"{result.max_clients_single_tenant}  (paper: 52)")


_COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "figure5": _run_figure5,
    "figure6": _run_figure6,
    "table1": _run_table1,
    "theorem2": _run_theorem2,
    "calibrate": _run_calibrate,
    "chaos": _run_chaos,
    "sweep": _run_sweep,
    "opt-gap": _run_opt_gap,
    "scaling": _run_scaling,
    "churn": _run_churn,
    "explain": _run_explain,
    "metrics": _run_metrics,
    "soak": _run_soak,
    "checkpoint": _run_checkpoint,
    "recover": _run_recover,
    "serve": _run_serve,
    "serve-send": _run_serve_send,
    "fleet-soak": _run_fleet_soak,
    "fleet-status": _run_fleet_status,
}

#: Commands that operate on a durable store or a live service; they
#: require --store/--socket and are excluded from ``repro all``.
_STORE_COMMANDS = {"checkpoint", "recover", "serve", "serve-send",
                   "fleet-soak", "fleet-status"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the CUBEFIT paper's figures and tables "
                    "(ICDCS 2017).")
    parser.add_argument("experiment",
                        choices=sorted(_COMMANDS) + ["all"],
                        help="which artifact to regenerate")
    parser.add_argument("--seed", type=int, default=0,
                        help="base random seed (default 0)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each result as CSV into DIR")
    parser.add_argument("--svg", metavar="DIR", default=None,
                        help="also render each figure as SVG into DIR")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="tenant trace (JSON) for the explain "
                             "command")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="durable-store directory (WAL + "
                             "checkpoints) for the soak, checkpoint "
                             "and recover commands")
    parser.add_argument("--ops", type=int, default=150,
                        help="operation count for the chaos command "
                             "(default 150)")
    parser.add_argument("--gamma", type=int, default=2,
                        help="replication factor for the chaos "
                             "command's bestfit controller (default 2)")
    parser.add_argument("--faults", metavar="LIST", default=None,
                        help="comma-separated failpoint names for the "
                             "chaos command; a deterministic schedule "
                             "over them is derived from --seed")
    parser.add_argument("--schedule", metavar="SCHED", default=None,
                        help="exact chaos fault schedule "
                             "('at_op:name=action[:k=v]*', "
                             "comma-separated); reproduces a prior run")
    parser.add_argument("--socket", metavar="PATH", default=None,
                        help="unix-domain socket for the serve and "
                             "serve-send commands")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="admission-queue bound for the serve "
                             "command (default 64); a full queue "
                             "answers with a typed backpressure error")
    parser.add_argument("--checkpoint-interval", type=float, default=5.0,
                        metavar="SECONDS",
                        help="seconds between the serve daemon's "
                             "checkpoint+compaction rounds (default 5; "
                             "0 disables the timer)")
    parser.add_argument("--verb", default="stats",
                        help="request verb for the serve-send command "
                             "(default stats)")
    parser.add_argument("--tenant", type=int, default=None,
                        help="tenant id for serve-send place/remove/"
                             "update_load")
    parser.add_argument("--load", type=float, default=None,
                        help="tenant load for serve-send place/"
                             "update_load")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for parallelizable "
                             "experiments (sweep, opt-gap); for "
                             "fleet-soak, 1 runs the streaming soak "
                             "and N > 1 routes first, then runs "
                             "shards on N workers; default 1")
    parser.add_argument("--tenants", type=int, default=2000,
                        help="sequence length for the sweep and "
                             "fleet-soak commands (default 2000)")
    parser.add_argument("--shards", type=int, default=8,
                        help="shard count for the fleet-soak command "
                             "(default 8)")
    parser.add_argument("--window", type=int, default=4096,
                        help="streaming-ingestion window for the "
                             "fleet-soak command at jobs=1: tenants "
                             "routed and admitted per cycle "
                             "(default 4096)")
    parser.add_argument("--fsync", default="always",
                        choices=["always", "rotate", "never"],
                        help="WAL fsync policy for streaming "
                             "fleet-soak shards (default always; "
                             "rotate/never trade the durability "
                             "contract for ingest speed)")
    parser.add_argument("--policy", default="hash",
                        choices=["hash", "least-loaded", "headroom"],
                        help="routing policy for the fleet-soak "
                             "command (default hash)")
    parser.add_argument("--shard-id", type=int, default=None,
                        help="shard id this serve daemon runs as "
                             "(reported by the stats verb)")
    parser.add_argument("--runs", type=int, default=3,
                        help="independent seeded instances per "
                             "distribution for the opt-gap command "
                             "(default 3)")
    parser.add_argument("--budget", type=int, default=None,
                        help="node budget for the opt-gap exact solver;"
                             " exhausted solves report a certified "
                             "[LB, UB] interval (default: the solver's "
                             "200000-node budget)")
    args = parser.parse_args(argv)

    from .par import validate_jobs
    try:
        validate_jobs(args.jobs)
        if args.tenants < 1:
            raise ConfigurationError(
                f"tenants must be >= 1, got {args.tenants}")
    except ReproError as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return 1

    profile = current_scale()
    print(f"[scale profile: {profile.name} — "
          f"{profile.sim_tenants} tenants x {profile.sim_runs} runs, "
          f"{profile.cluster_servers} cluster servers; set "
          f"REPRO_FULL_SCALE=1 for paper scale]\n")

    names = sorted(set(_COMMANDS) - _STORE_COMMANDS) \
        if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        try:
            _COMMANDS[name](args)
            print(f"[{name}: {time.perf_counter() - start:.1f}s]\n")
        except KeyboardInterrupt:
            # Ctrl-C is an operator decision, not a crash: one line on
            # stderr and the conventional 128+SIGINT exit status.
            # Commands holding a durable store release it on the way
            # out through their own try/finally blocks.
            print(f"repro {name}: interrupted", file=sys.stderr)
            return 130
        except BrokenPipeError:
            # Downstream closed the pipe (e.g. `| head`): stop quietly
            # with the conventional 128+SIGPIPE status. Reopen stdout
            # on devnull so the interpreter's shutdown flush does not
            # traceback on the dead descriptor.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 141
        except ReproError as err:
            # Operator-facing failure (missing/corrupt file, bad
            # parameter, failed audit): one line on stderr, non-zero
            # exit — never a traceback.
            print(f"repro {name}: error: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
