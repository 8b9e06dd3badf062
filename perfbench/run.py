"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload consolidate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads: consolidate, churn-durable, serve, fleet-stream.  With
``--trace 0`` the last line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
pass, and a per-layer self-time table and the tracing overhead are
printed above it.  ``--workload all`` runs every workload untraced and
traced in turn.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("consolidate", "churn-durable", "serve", "fleet-stream")
EXPECTED = Path(__file__).resolve().parent / "expected.json"
WORKDIR = ROOT / ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input sizes (toy is for the benchmark's "
                             "own tests)")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's fingerprints and server "
                             "counts in perfbench/expected.json")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path; exit 2 without it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {source}/repro", file=sys.stderr)
        sys.exit(2)
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(source), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != here]
    import repro
    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{source}", file=sys.stderr)
        sys.exit(2)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace",
                       str(trace), "--size", args.size]
            proc = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"perfbench: {workload} exited with "
                      f"{proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, value in result["metrics"].items():
                metrics[f"{workload}/{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_table(ctx, wall: float, layers) -> tuple:
    """Per-layer self time of the traced pass, plus the untraced rest."""
    totals = ctx.tracer.self_times()
    covered = sum(totals.values())
    lines = [f"per-layer self time (traced pass, {len(ctx.tracer.spans)} "
             f"spans):"]
    for layer in layers:
        seconds = totals.get(layer, 0.0)
        lines.append(f"  {layer:<12} {seconds:9.4f} s  "
                     f"{100.0 * seconds / max(covered, 1e-12):5.1f}%")
    lines.append(f"  {'(outside)':<12} {max(wall - covered, 0.0):9.4f} s  "
                 f"benchmark time outside any layer call, both passes")
    return lines, totals


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    from perfbench import churn, consolidate, fleet, harness, serve

    module = {"consolidate": consolidate, "churn-durable": churn,
              "serve": serve, "fleet-stream": fleet}[args.workload]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = harness.Run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.size, workdir, expected,
                      args.record)
    ctx.fsyncs.install()
    try:
        facts = harness.host_facts(workdir)
        module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = ctx.elapsed()

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  size {args.size}  "
          f"wall {wall:.2f} s")
    print("host " + "  ".join(f"{k} {v}" for k, v in facts.items()))
    print(f"controls: stores in the checkout ({facts['workdir_fs']}), "
          "fsync policy always, os.fsync a counted no-op here and in the "
          "daemon (no memory-backed filesystem in the checkout); serve "
          "checkpoints by verb at fixed op counts; one client thread, "
          "one connection; garbage collected untimed before each pass")
    for line in ctx.report + ctx.notes:
        print(line)
    for failure in ctx.failures:
        print(f"FAILED {failure}")
    if args.trace:
        lines, totals = layer_table(ctx, wall, harness.LAYERS)
        print("\n".join(lines))
        print(f"{ctx.overhead_of} overhead {100.0 * ctx.overhead:+.1f}% "
              f"(untraced pass vs traced pass of this run)")
        for layer in harness.LAYERS:
            ctx.layer[f"trace.{layer}.self_s"] = totals.get(layer, 0.0)
        ctx.layer["trace.overhead"] = ctx.overhead
        trace_file = (WORKDIR / "traces"
                      / f"{args.workload}-seed{args.seed}.jsonl")
        ctx.tracer.write(trace_file)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        catalogue, values = harness.PER_LAYER, ctx.layer
    else:
        ctx.e2e["peak_rss_mb"] = harness.peak_rss_mb() + ctx.daemon_rss_mb
        print(f"peak_rss_mb {ctx.e2e['peak_rss_mb']:.1f} MB  (benchmark "
              f"process{' + daemon' if ctx.daemon_rss_mb else ''})")
        catalogue, values = harness.END_TO_END, ctx.e2e

    if args.record and ctx.failed == 0:
        book = expected.setdefault(args.size, {}).setdefault(
            args.workload, {})
        book[str(args.seed)] = ctx.recorded
        EXPECTED.write_text(json.dumps(expected, indent=1,
                                       sort_keys=True) + "\n")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in catalogue}
    print(json.dumps({"correct": ctx.failed == 0,
                      "attempted": max(ctx.attempted, 1),
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
