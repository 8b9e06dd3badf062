#!/usr/bin/env python
"""Run the placement-speed bench scenarios; write or check a baseline.

The scenario lineup, timing protocol and tolerance check live in
:mod:`repro.sim.bench`; this runner is the command-line front-end that
maintains ``BENCH_placement.json`` so the bench trajectory can be
diffed commit over commit.

Usage::

    PYTHONPATH=src python tools/run_bench.py              # full run, write
    PYTHONPATH=src python tools/run_bench.py --jobs 4     # parallel timing
    PYTHONPATH=src python tools/run_bench.py --quick      # CI smoke: run a
        # reduced protocol and check against the committed baseline
        # instead of writing; exits 1 on packing drift or gross slowdown

The default run times every scenario at 2,000, 10,000 and 100,000
tenants (override with ``--scales``), records screened-vs-exact
feasibility counters per scenario, and writes the version-3 schema::

    {"format": "repro-bench", "version": 3, "rounds": ...,
     "scales": {"2000": {...}, "10000": {...}, "100000": {...}},
     "feasibility": {"2000": {"cubefit": {"screened": ..., "exact": ...,
                                          "screened_fraction": ...}}},
     "fleet": {"100000x8": {...}, "1000000x16": {...}}}

Version 3 drops v2's duplicate top-level ``n_tenants`` + ``scenarios``
alias of the first scale; the ``--quick`` baseline check reads v2 and
v3 baselines interchangeably.

``servers``, ``utilization`` and the feasibility counters are
deterministic and meaningful to diff; throughput numbers are
machine-dependent context.
"""

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from repro.sim.bench import (DEFAULT_FLEET_SCALES,  # noqa: E402
                             DEFAULT_ROUNDS, DEFAULT_SCALES,
                             check_against_baseline, run_bench)

QUICK_SCALES = (2000,)
QUICK_ROUNDS = 2
#: Quick mode still exercises the fleet pipeline, at a scale cheap
#: enough for a CI smoke; its key differs from the committed 100k
#: entry, so the baseline check skips the throughput comparison.
QUICK_FLEET_SCALES = ((2000, 4),)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time placement algorithms; write or check the "
                    "bench baseline.")
    parser.add_argument("--output", type=Path,
                        default=_ROOT / "BENCH_placement.json")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"timing rounds per scenario "
                             f"(default {DEFAULT_ROUNDS})")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the scenario fan-out")
    parser.add_argument("--scales", type=str, default=None,
                        help="comma-separated tenant counts "
                             f"(default {','.join(map(str, DEFAULT_SCALES))})")
    parser.add_argument("--names", type=str, default=None,
                        help="comma-separated scenario subset "
                             "(default: every scenario)")
    parser.add_argument("--fleet-scales", type=str, default=None,
                        help="comma-separated TENANTSxSHARDS fleet "
                             "scenarios (default "
                             f"{','.join(f'{n}x{s}' for n, s in DEFAULT_FLEET_SCALES)}"
                             "; 'none' disables)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced protocol + baseline check; does "
                             "not write the baseline")
    parser.add_argument("--baseline", type=Path,
                        default=_ROOT / "BENCH_placement.json",
                        help="baseline to check --quick runs against")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed throughput slowdown factor for "
                             "--quick (default 3.0)")
    args = parser.parse_args(argv)

    if args.scales is not None:
        scales = tuple(int(s) for s in args.scales.split(","))
    elif args.quick:
        scales = QUICK_SCALES
    else:
        scales = DEFAULT_SCALES
    rounds = args.rounds if args.rounds is not None else \
        (QUICK_ROUNDS if args.quick else DEFAULT_ROUNDS)

    if args.fleet_scales is not None:
        fleet_scales = () if args.fleet_scales == "none" else tuple(
            tuple(int(part) for part in spec.split("x"))
            for spec in args.fleet_scales.split(","))
    elif args.quick:
        fleet_scales = QUICK_FLEET_SCALES
    else:
        fleet_scales = DEFAULT_FLEET_SCALES

    names = tuple(args.names.split(",")) if args.names else None
    payload = run_bench(scales=scales, rounds=rounds, jobs=args.jobs,
                        names=names, fleet_scales=fleet_scales,
                        progress=print)

    if args.quick:
        baseline = json.loads(args.baseline.read_text())
        problems = check_against_baseline(payload, baseline,
                                          slowdown_tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"BASELINE CHECK FAILED: {problem}",
                      file=sys.stderr)
            return 1
        print(f"baseline check passed against {args.baseline}")
        return 0

    args.output.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
