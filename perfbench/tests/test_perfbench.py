"""The benchmark's own tests.

Every workload runs at toy size, untraced and traced, and must print
every metric BENCHMARK.json names, with its unit.  Each correctness
check is shown to fire on a broken input.  Run from the repository
root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import RobustBestFit, Tenant  # noqa: E402
from repro.core.placement import PlacementState  # noqa: E402
from repro.core.tenant import Replica  # noqa: E402
from repro.fleet import (FleetSoakConfig, ShardController,  # noqa: E402
                         run_streaming_soak)
from repro.store import DurableStore  # noqa: E402

from perfbench import churn, consolidate, fleet, harness, run, serve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int = 0, *extra: str, cwd: Path = ROOT):
    """Run the benchmark at toy size; returns (process, stdout lines)."""
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "0.1",
               "--trace", str(trace), "--size", "toy", *extra]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)
    return proc, proc.stdout.strip().splitlines()


def make_ctx(tmp_path: Path, workload: str = "churn-durable", expected=None):
    return harness.Run(workload, 1, 0.1, False, "toy", tmp_path,
                       expected or {}, False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, lines = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == {m["name"]: m["unit"]
                                           for m in spec}
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())
    else:
        assert "per-layer self time" in proc.stdout
    assert "seed 1" in lines[0]
    assert not any(line.startswith("unrecorded seed") for line in lines)


def test_tampered_fingerprint_is_a_failed_check(tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    expected["toy"]["consolidate"]["1"]["bestfit.fingerprint"] = "0" * 64
    ctx = make_ctx(tmp_path, "consolidate", expected)
    consolidate.run(ctx)
    assert ctx.failed >= 1
    assert any(failure.startswith("expected bestfit.fingerprint")
               for failure in ctx.failures)


def test_unrecorded_seed_prints_its_fingerprints(tmp_path):
    ctx = make_ctx(tmp_path, "consolidate", {"toy": {}})
    consolidate.run(ctx)
    assert ctx.failed == 0
    assert any(note.startswith("unrecorded seed: bestfit.fingerprint = ")
               for note in ctx.notes)
    assert set(ctx.recorded) == {f"{name}.{key}"
                                 for name, _ in consolidate.ALGORITHMS
                                 for key in ("fingerprint", "servers")}


def test_values_must_repeat_across_passes(tmp_path):
    ctx = make_ctx(tmp_path)
    ctx.expect("servers", 5)
    ctx.expect("servers", 5)
    assert ctx.failed == 0
    ctx.expect("servers", 6)
    assert ctx.failed == 1


def _store_with_tenants(directory: Path):
    algorithm = RobustBestFit(gamma=2)
    store = DurableStore(directory)
    algorithm.attach_store(store)
    for tenant in range(40):
        algorithm.place(Tenant(tenant, 0.05 + 0.01 * (tenant % 7)))
    store.close()
    return algorithm


def test_corrupted_wal_record_fails_the_recovery_check(tmp_path):
    algorithm = _store_with_tenants(tmp_path / "store")
    segment = sorted((tmp_path / "store" / "wal").glob("*"))[0]
    lines = segment.read_text().splitlines()
    lines[len(lines) // 2] = "{not json"
    segment.write_text("\n".join(lines) + "\n")
    ctx = make_ctx(tmp_path)
    assert churn.check_recovery(ctx, tmp_path / "store",
                                algorithm.placement) is None
    assert ctx.failed == 1 and "StoreCorruptionError" in ctx.failures[0]


def test_recovery_that_differs_from_live_fails(tmp_path):
    algorithm = _store_with_tenants(tmp_path / "store")
    algorithm.attach_store(None)
    algorithm.place(Tenant(999, 0.1))  # never logged
    ctx = make_ctx(tmp_path)
    assert churn.check_recovery(ctx, tmp_path / "store",
                                algorithm.placement) is not None
    assert ctx.failed == 1


def test_audit_violation_fails(tmp_path):
    placement = PlacementState(gamma=2)
    first, second = placement.open_server(), placement.open_server()
    for tenant in (0, 1):
        placement.place(Replica(tenant, 0, 0.5), first.server_id)
        placement.place(Replica(tenant, 1, 0.5), second.server_id)

    class Packed:
        guaranteed_failures = 1

    Packed.placement = placement
    ctx = make_ctx(tmp_path, "consolidate")
    consolidate.verify(ctx, "bestfit", Packed)
    assert any("bestfit audit" in failure for failure in ctx.failures)


def test_replica_check_fires():
    assert harness.replica_problems({1: [0, 1], 2: [3, 4]}, 2) == []
    assert harness.replica_problems({1: [3, 3]}, 2)
    assert harness.replica_problems({1: [3]}, 2)


def test_serve_ack_check_fires():
    assert serve.ack_problems({1: [0, 1]}, {1: [0, 1]}) == []
    assert serve.ack_problems({1: [0, 1]}, {1: [0, 2]})
    assert serve.ack_problems({1: [0, 1]}, {})


def test_fleet_checks_fire(tmp_path):
    root = tmp_path / "fleet"
    config = FleetSoakConfig(shards=fleet.SHARDS, tenants=200, seed=1,
                             max_servers_per_shard=12,
                             crash_shard=fleet.CRASH_SHARD)
    tracer, batches = harness.Tracer(True), []
    original = ShardController.place_batch
    with fleet.timed_fleet(tracer, batches):
        result = run_streaming_soak(root, config, window=64)
    assert ShardController.place_batch is original
    names = {span[0] for span in tracer.spans}
    assert {"fleet.route", "fleet.place_batch", "fleet.recover",
            "fleet.checkpoint", "fleet.audit"} <= names
    assert len(batches) == sum(
        1 for span in tracer.spans if span[0] == "fleet.place_batch")
    ctx = make_ctx(tmp_path, "fleet-stream")
    fleet.check_soak(ctx, result)
    fleet.check_stores(ctx, root, result)
    assert ctx.failed == 0, ctx.failures

    result.crash_outcome.crash["divergences"].append("lost an ack")
    result.outcomes[0].audit_ok = False
    fleet.check_soak(ctx, result)
    assert ctx.failed == 2
    assert any("crash-drilled shard recovers" in failure
               for failure in ctx.failures)
    assert any("every shard audits clean" in failure
               for failure in ctx.failures)

    (fleet.shard_directory(root, 5) / "checkpoint.json").write_text("{")
    fleet.check_stores(ctx, root, result)
    assert any(failure.startswith("shard 5 store")
               for failure in ctx.failures)


def test_daemon_peak_is_its_own_high_water_mark():
    assert serve.daemon_peak_mb(os.getpid()) == pytest.approx(
        harness.peak_rss_mb(), rel=0.25)


def test_self_time_splits_overlapping_children():
    tracer = harness.Tracer(True)
    tracer.spans = [["fleet.parent", 0.0, 10.0, -1, None],
                    ["serve.request", 1.0, 3.0, 0, 1],
                    ["serve.request", 2.0, 5.0, 0, 2]]
    totals = tracer.self_times()
    assert totals == pytest.approx({"fleet": 6.0, "serve": 4.0})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("consolidate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not (lines and lines[-1].startswith("{"))


def test_benchmark_json_matches_the_catalogue():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(harness.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
