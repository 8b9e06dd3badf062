#!/usr/bin/env python
"""Trace workflows: record a run, replay it, recover from failures.

Run with::

    python examples/trace_replay.py

Demonstrates the operational toolchain around the placement core:

1. generate a workload and save it as a trace file,
2. consolidate it, checkpoint the placement to disk,
3. reload both and verify the reconstruction bit-for-bit,
4. replay the same trace against a different algorithm (paired
   comparison on identical arrivals),
5. fail servers and re-replicate the lost replicas onto survivors,
   restoring the replication factor without breaking robustness.
"""

import tempfile
from pathlib import Path

from repro import CubeFit, RFI, RecoveryPlanner, audit
from repro.store import diff_placements, load_checkpoint, save_checkpoint
from repro.workloads import (UniformLoad, generate_sequence, load_trace,
                             save_trace)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-trace-"))
    trace_path = workdir / "workload.json"
    placement_path = workdir / "cubefit-placement.json"

    # 1. Record the workload.
    sequence = generate_sequence(UniformLoad(0.5), n=500, seed=7)
    save_trace(sequence, trace_path)
    print(f"saved {len(sequence)} tenants -> {trace_path}")

    # 2. Consolidate and checkpoint.
    cubefit = CubeFit(gamma=2, num_classes=10)
    cubefit.consolidate(sequence)
    save_checkpoint(cubefit.placement, placement_path,
                    algorithm="cubefit")
    print(f"CubeFit used {cubefit.num_servers} servers -> "
          f"{placement_path}")

    # 3. Reload and verify.
    replayed = load_trace(trace_path)
    restored = load_checkpoint(placement_path).restore()
    assert diff_placements(cubefit.placement, restored) == []
    audit(restored).raise_if_violated()
    print("reload check: placement identical, robustness audit OK")

    # 4. Paired comparison on the identical trace.
    rfi = RFI(gamma=2)
    rfi.consolidate(replayed)
    print(f"replayed against RFI: {rfi.num_servers} servers "
          f"(CubeFit saved "
          f"{(rfi.num_servers - cubefit.num_servers) / cubefit.num_servers:.1%})")

    # 5. Fail three servers and re-replicate.
    victims = sorted(s.server_id for s in restored if len(s) > 0)[:3]
    lost = sum(len(restored.server(v)) for v in victims)
    plan = RecoveryPlanner(restored).recover(victims)
    print(f"failed servers {victims}: {lost} replicas lost, "
          f"{plan.replicas_relocated} relocated, "
          f"{plan.servers_opened} new servers opened")
    audit(restored).raise_if_violated()
    for tid in restored.tenant_ids:
        assert len(restored.tenant_servers(tid)) == 2
    print("post-recovery: replication factor restored, audit OK")


if __name__ == "__main__":
    main()
