"""Kill-and-resume differential tests.

The acceptance bar for the durable store: killing the controller after
any prefix of operations and recovering from checkpoint + WAL tail must
yield a state identical to the uninterrupted run at the same point
(snapshot, per-replica loads, server count) and pass the full gamma-1
robustness audit — then the run continues and still finishes clean.
"""

import json

import pytest

from repro.core.cubefit import CubeFit
from repro.algorithms.naive import RobustBestFit
from repro.algorithms.rfi import RFI
from repro.obs import MetricsRegistry
from repro.sim.churn import ChurnConfig, run_churn_with_crash
from repro.sim.soak import SoakConfig, run_soak_with_crash
from repro.store import DurableStore, diff_placements, recover
from repro.workloads.distributions import UniformLoad

SOAK = SoakConfig(operations=90, seed=11)


class TestSoakCrash:
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_bestfit_crash_midway(self, tmp_path, gamma):
        report = run_soak_with_crash(
            lambda: RobustBestFit(gamma=gamma),
            tmp_path / "st", config=SOAK, crash_after=45,
            checkpoint_every=20)
        assert report.diffs == []
        assert report.ok and report.result.ok

    @pytest.mark.parametrize("crash_after", [1, 13, 44, 89])
    def test_any_crash_point_recovers_identically(self, tmp_path,
                                                  crash_after):
        report = run_soak_with_crash(
            lambda: RobustBestFit(gamma=2),
            tmp_path / "st", config=SOAK, crash_after=crash_after,
            checkpoint_every=20)
        assert report.ok and report.result.ok
        assert report.crash_after == crash_after

    def test_cubefit_crash_resumes_on_bestfit(self, tmp_path):
        report = run_soak_with_crash(
            lambda: CubeFit(gamma=3),
            tmp_path / "st", config=SOAK, crash_after=50,
            checkpoint_every=15)
        assert report.ok and report.result.ok

    def test_rfi_crash_resumes_on_bestfit(self, tmp_path):
        # RFI guarantees one failure at any gamma; the resumed bestfit
        # keeps that recorded budget, not gamma - 1.
        report = run_soak_with_crash(
            lambda: RFI(gamma=3),
            tmp_path / "st", config=SOAK, crash_after=40,
            checkpoint_every=25)
        assert report.ok and report.result.ok
        meta = json.loads((tmp_path / "st" / "meta.json").read_text())
        assert meta["algorithm"] == "bestfit"
        assert meta["gamma"] == 3
        assert meta["failures"] == 1

    def test_crash_without_any_checkpoint(self, tmp_path):
        # Pure WAL replay from an empty initial state.
        report = run_soak_with_crash(
            lambda: RobustBestFit(gamma=2),
            tmp_path / "st", config=SOAK, crash_after=30,
            checkpoint_every=None)
        assert report.ok and report.result.ok
        assert report.checkpoint_seq == 0
        assert report.records_replayed > 0

    def test_tail_replay_is_bounded_by_checkpoint(self, tmp_path):
        obs = MetricsRegistry()
        report = run_soak_with_crash(
            lambda: RobustBestFit(gamma=2),
            tmp_path / "st", config=SOAK, crash_after=45,
            checkpoint_every=20, obs=obs)
        assert report.ok
        # Crash at op 45, checkpoints every 20 ops: the tail covers at
        # most 20 soak operations (each <= 2 WAL records + opens).
        assert 0 < report.records_replayed < 90
        snap = obs.snapshot()
        assert snap["store.recover.records_replayed"]["value"] == \
            report.records_replayed

    def test_compaction_after_crash_changes_nothing(self, tmp_path):
        report = run_soak_with_crash(
            lambda: RobustBestFit(gamma=2),
            tmp_path / "st", config=SOAK, crash_after=45,
            checkpoint_every=20, segment_records=16)
        assert report.ok
        before = recover(tmp_path / "st")
        store = DurableStore(tmp_path / "st")
        store.checkpoint(before.placement)
        assert store.compact()
        store.close()
        after = recover(tmp_path / "st")
        assert diff_placements(before.placement, after.placement) == []


class TestChurnCrash:
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_churn_crash_midway(self, tmp_path, gamma):
        config = ChurnConfig(arrival_rate=5.0, mean_lifetime=8.0,
                             horizon=20.0, sample_every=5.0, seed=3)
        report = run_churn_with_crash(
            lambda: RobustBestFit(gamma=gamma), UniformLoad(0.5),
            tmp_path / "st", config=config, crash_after_events=30,
            checkpoint_every=12)
        assert report.diffs == []
        assert report.ok
        assert report.result.final_robust
        assert report.result.arrivals > 0

    def test_churn_crash_near_end_of_stream(self, tmp_path):
        config = ChurnConfig(arrival_rate=4.0, mean_lifetime=6.0,
                             horizon=10.0, sample_every=5.0, seed=5)
        report = run_churn_with_crash(
            lambda: RobustBestFit(gamma=2), UniformLoad(0.4),
            tmp_path / "st", config=config,
            crash_after_events=10**6,  # past the stream: crash at end
            checkpoint_every=10)
        assert report.ok
        assert report.result.final_robust
