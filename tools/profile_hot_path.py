#!/usr/bin/env python
"""Profile the admission hot path, phase by phase.

Runs one gamma-2 consolidation of a seed-0 ``Uniform(0, 0.6]``
sequence under cProfile and buckets every function's *self* time into
the pipeline's four phases:

* ``sync``        — candidate-index refresh/sync (re-deriving level
  and robust availability for the servers the dirty tracker reports);
* ``screen``      — candidate queries and iteration, and the
  fullest-first selection scan;
* ``exact``       — the exact feasibility probe
  (``robust_after_placement``) and the top-``f`` shared-load sums it
  evaluates (``worst_shared_sum``; the same kernel fills the
  worst-failover cache that ``sync`` reads, and its self time lands
  here too);
* ``bookkeeping`` — placement mutation itself (``place``, server
  add, shared-load index updates, cache invalidation).

Self time (pstats ``tottime``) is used so the phases partition the
run without double counting callers; everything unmatched lands in
``other`` (tenant generation, dataclass plumbing, the consolidate loop).

Usage::

    PYTHONPATH=src python tools/profile_hot_path.py
    PYTHONPATH=src python tools/profile_hot_path.py \
        --name cubefit --tenants 20000
    PYTHONPATH=src python tools/profile_hot_path.py --top 15
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from repro.algorithms.base import make_algorithm  # noqa: E402
from repro.workloads.distributions import UniformLoad  # noqa: E402
from repro.workloads.sequences import generate_sequence  # noqa: E402

#: The algorithms the tool profiles (CUBEFIT with its default 10
#: size classes).
ALGORITHMS = ("bestfit", "cubefit", "firstfit", "nextfit", "rfi")

#: phase -> ((filename substring, function name), ...).  Order
#: matters: the first phase whose pattern matches claims the function.
PHASE_PATTERNS = (
    ("sync", (
        ("base.py", "refresh"),
        ("base.py", "sync"),
    )),
    ("screen", (
        ("base.py", "iter_candidates"),
        ("base.py", "candidates_by_id"),
        ("base.py", "_survivors"),
        ("base.py", "select"),
    )),
    ("exact", (
        ("placement.py", "worst_shared_sum"),
        ("base.py", "robust_after_placement"),
        ("naive.py", "_feasible"),
    )),
    ("bookkeeping", (
        ("placement.py", "place"),
        ("placement.py", "_touch"),
        ("placement.py", "open_server"),
        ("placement.py", "server"),
        ("server.py", "add"),
        ("server.py", "remove"),
        ("tenant.py", "replicas"),
        ("tenant.py", "replica_load"),
    )),
)


def classify(filename: str, funcname: str) -> str:
    for phase, patterns in PHASE_PATTERNS:
        for file_part, func in patterns:
            if func == funcname and filename.endswith(file_part):
                return phase
    return "other"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cProfile the admission hot path; report self "
                    "time per pipeline phase.")
    parser.add_argument("--name", default="bestfit",
                        choices=ALGORITHMS,
                        help="algorithm to profile (default bestfit)")
    parser.add_argument("--tenants", type=int, default=10000,
                        help="sequence length (default 10000)")
    parser.add_argument("--top", type=int, default=8,
                        help="functions listed per phase (default 8)")
    args = parser.parse_args(argv)

    tenants = list(generate_sequence(UniformLoad(0.6), args.tenants,
                                     seed=0))
    algo = make_algorithm(args.name, 2)

    profiler = cProfile.Profile()
    profiler.enable()
    algo.consolidate(tenants)
    profiler.disable()

    stats = pstats.Stats(profiler)
    phases = {phase: [] for phase, _ in PHASE_PATTERNS}
    phases["other"] = []
    total = 0.0
    for (filename, _line, funcname), row in stats.stats.items():
        calls, _prim, tottime, _cum = row[0], row[1], row[2], row[3]
        total += tottime
        phases[classify(filename, funcname)].append(
            (tottime, calls, funcname, Path(filename).name))

    print(f"hot-path profile: {args.name}, {args.tenants} tenants, "
          f"{algo.placement.num_servers} servers")
    print(f"{'phase':<12} {'self s':>9} {'share':>7}")
    print("-" * 30)
    order = [phase for phase, _ in PHASE_PATTERNS] + ["other"]
    for phase in order:
        seconds = sum(t for t, *_ in phases[phase])
        share = seconds / total if total else 0.0
        print(f"{phase:<12} {seconds:>9.3f} {share:>6.1%}")
    print("-" * 30)
    print(f"{'total':<12} {total:>9.3f}")
    for phase in order:
        rows = sorted(phases[phase], reverse=True)[:args.top]
        rows = [r for r in rows if r[0] >= 0.001]
        if not rows:
            continue
        print(f"\n{phase}:")
        for tottime, calls, funcname, filename in rows:
            print(f"  {tottime:>8.3f}s {calls:>9,}x  "
                  f"{filename}:{funcname}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
