"""Unit tests for the durable store: bind, logging, recovery, compaction.

Stores come from the shared ``store_factory`` fixture (tests/conftest),
which guarantees every store is closed at teardown — tests that
simulate a crash simply never close explicitly.
"""

import json
from pathlib import Path

import pytest

from repro import faults
from repro.algorithms.naive import (RobustBestFit, RobustFirstFit,
                                    RobustNextFit)
from repro.algorithms.rfi import RFI
from repro.core.cubefit import CubeFit
from repro.core.tenant import Tenant
from repro.errors import (ConfigurationError, FaultInjected,
                          RobustnessViolation, StoreCorruptionError)
from repro.obs import EventJournal, MetricsRegistry
from repro.sim.soak import SoakConfig, run_soak
from repro.store import DurableStore, diff_placements, open_durable, recover
from repro.store import recovery as store_recovery


def _run_ops(algo, count=10, load=0.2, start_id=0):
    for i in range(start_id, start_id + count):
        algo.place(Tenant(i, load))
    return algo


class TestBindAndMeta:
    def test_bind_writes_meta(self, tmp_path, store_factory):
        store = store_factory()
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store)
        meta = json.loads((tmp_path / "st" / "meta.json").read_text())
        assert meta["algorithm"] == "bestfit"
        assert meta["gamma"] == 2
        assert meta["capacity"] == 1.0

    def test_meta_rename_is_durable(self, store_factory, fs_events):
        store = store_factory()
        RobustBestFit(gamma=2).attach_store(store)
        renamed = fs_events.index(("replace", "meta.json"))
        assert fs_events.fsync_of(store.meta_path) in fs_events[:renamed]
        assert fs_events.fsync_of(store.directory) in fs_events[renamed:]

    def test_new_directories_are_durable_before_any_record(
            self, tmp_path, fs_events):
        # A power loss must not drop the store: every directory it
        # creates has its entry fsynced in its parent before the first
        # WAL record is fsynced.
        store = DurableStore(tmp_path / "a" / "st")
        try:
            algo = RobustBestFit(gamma=2)
            algo.attach_store(store)
            _run_ops(algo, count=5)
            first_record = fs_events.index(
                fs_events.fsync_of(store.wal.segments()[0]))
            for parent in (tmp_path, tmp_path / "a", store.directory):
                assert fs_events.fsync_of(parent) \
                    in fs_events[:first_record], parent
        finally:
            store.close()

    def test_new_directories_not_fsynced_under_never(self, tmp_path,
                                                     fs_events):
        store = DurableStore(tmp_path / "st", fsync="never")
        try:
            algo = RobustBestFit(gamma=2)
            algo.attach_store(store)
            _run_ops(algo, count=5)
        finally:
            store.close()
        assert fs_events.fsync_of(tmp_path) not in fs_events

    def test_rebind_with_different_gamma_rejected(self, store_factory):
        store = store_factory()
        RobustBestFit(gamma=2).attach_store(store)
        store.close()
        store2 = store_factory()
        store2.recover()  # else the unrecovered-history refusal fires
        with pytest.raises(ConfigurationError, match="created with gamma=2"):
            RobustBestFit(gamma=3).attach_store(store2)

    def test_missing_store_requires_create(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DurableStore(tmp_path / "nope", create=False)

    def test_recover_unbound_store_rejected(self, tmp_path, store_factory):
        store_factory().close()
        with pytest.raises(ConfigurationError):
            recover(tmp_path / "st")


class TestReplay:
    @pytest.mark.parametrize("factory", [
        lambda: RobustBestFit(gamma=1),
        lambda: RobustBestFit(gamma=3),
        lambda: RobustFirstFit(gamma=2),
        lambda: RobustNextFit(gamma=2),
        lambda: RFI(gamma=2),
        lambda: CubeFit(gamma=2),
    ])
    def test_wal_only_replay_matches_live_state(self, tmp_path,
                                                store_factory, factory):
        algo = factory()
        algo.attach_store(store_factory())
        _run_ops(algo, count=12)
        algo.remove(3)
        algo.update_load(5, 0.45)
        # Simulated crash: no close, no checkpoint.
        state = recover(tmp_path / "st")
        assert state.records_replayed > 0
        assert state.checkpoint_seq == 0
        assert diff_placements(algo.placement, state.placement,
                               compare_tags=False) == []

    def test_audit_runs_on_recovery(self, tmp_path, store_factory):
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store_factory())
        _run_ops(algo, count=8)
        assert recover(tmp_path / "st").audit.ok

    def test_recover_refuses_a_state_that_fails_its_audit(
            self, tmp_path, store_factory):
        # Two gamma-2 tenants of load 0.8 on [0, 1] and [0, 2] fit every
        # server's capacity, but server 0 holds 0.8 with a 0.4 partner,
        # so one failure overloads it: recovery raises instead of
        # returning a state whose audit failed.
        store = store_factory()
        RobustBestFit(gamma=2).attach_store(store)
        store.log_open_through(3)
        store.log_place(0, 0.8, [0, 1])
        store.log_place(1, 0.8, [0, 2])
        with pytest.raises(RobustnessViolation):
            recover(tmp_path / "st")

    def test_recover_rejects_gamma_tampering(self, tmp_path,
                                             store_factory):
        algo = RobustBestFit(gamma=2)
        store = store_factory()
        algo.attach_store(store)
        _run_ops(algo, count=4)
        store.checkpoint(algo.placement)
        store.close()
        meta_path = tmp_path / "st" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["gamma"] = 3
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreCorruptionError):
            recover(tmp_path / "st")

    def test_checkpoint_beyond_wal_is_corruption(self, tmp_path,
                                                 store_factory):
        algo = RobustBestFit(gamma=2)
        store = store_factory()
        algo.attach_store(store)
        _run_ops(algo, count=4)
        store.checkpoint(algo.placement)
        store.close()
        path = tmp_path / "st" / "checkpoint.json"
        payload = json.loads(path.read_text())
        payload["wal_applied"] = 10**6
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreCorruptionError):
            recover(tmp_path / "st")


class TestCheckpointAndCompaction:
    def _store_with_history(self, store_factory, ops=40):
        store = store_factory(segment_records=8)
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store)
        _run_ops(algo, count=ops)
        return store, algo

    def test_tail_replay_is_o_of_k(self, tmp_path, store_factory):
        store, algo = self._store_with_history(store_factory)
        store.checkpoint(algo.placement)
        _run_ops(algo, count=3, start_id=100)  # the k-event tail
        obs = MetricsRegistry()
        state = recover(tmp_path / "st", obs=obs)
        snap = obs.snapshot()
        replayed = snap["store.recover.records_replayed"]["value"]
        assert replayed == state.records_replayed
        # 3 places => at most 3 op records plus any server opens; far
        # fewer than the 40+ pre-checkpoint records.
        assert 3 <= replayed <= 9
        assert diff_placements(algo.placement, state.placement) == []

    def test_compaction_preserves_recovered_state(self, tmp_path,
                                                  store_factory):
        store, algo = self._store_with_history(store_factory)
        store.checkpoint(algo.placement)
        _run_ops(algo, count=2, start_id=100)
        before = recover(tmp_path / "st")
        removed = store.compact()
        assert removed  # pre-checkpoint segments existed and were cut
        after = recover(tmp_path / "st")
        assert diff_placements(before.placement, after.placement) == []
        assert after.records_replayed == before.records_replayed

    def test_compact_without_checkpoint_is_noop(self, store_factory):
        store, _algo = self._store_with_history(store_factory)
        assert store.compact() == []

    def test_checkpoint_then_empty_tail_replays_nothing(self, tmp_path,
                                                        store_factory):
        store, algo = self._store_with_history(store_factory)
        store.checkpoint(algo.placement)
        store.close()
        assert recover(tmp_path / "st").records_replayed == 0

    def _journaled_history(self, store_factory, name):
        journal = EventJournal()
        store = store_factory(name, segment_records=8,
                              obs=MetricsRegistry(journal=journal))
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store)
        _run_ops(algo, count=40)
        return store, algo, journal

    def test_checkpoint_and_compact_does_not_read_the_checkpoint_back(
            self, store_factory, monkeypatch):
        store, algo, journal = self._journaled_history(store_factory, "a")
        store.checkpoint(algo.placement)
        removed = store.compact()
        assert removed
        expected = ([p.name for p in removed],
                    [(e.type, e.data) for e in journal])

        def refuse(path):
            raise AssertionError(f"{path} was read back")

        monkeypatch.setattr(store_recovery, "load_checkpoint", refuse)
        store, algo, journal = self._journaled_history(store_factory, "b")
        _path, removed = store.checkpoint_and_compact(algo.placement)
        assert ([p.name for p in removed],
                [(e.type, e.data) for e in journal]) == expected
        assert [e.type for e in journal] == ["checkpoint", "compact"]

    def test_checkpoint_rename_is_durable_before_any_unlink(
            self, tmp_path, store_factory, monkeypatch, fs_events):
        store, algo = self._store_with_history(store_factory)
        real_unlink = Path.unlink

        def unlink(path, *args, **kwargs):
            fs_events.append(("unlink", path.name))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink)
        fs_events.clear()
        _path, removed = store.checkpoint_and_compact(algo.placement)
        assert removed
        first_unlink = [kind for kind, _name in fs_events].index("unlink")
        assert fs_events.index(("replace", "checkpoint.json")) \
            < fs_events.index(fs_events.fsync_of(tmp_path / "st")) \
            < first_unlink

    def test_stale_checkpoint_over_compacted_wal_is_refused(
            self, tmp_path, store_factory):
        store = store_factory(segment_records=4)
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store)
        _run_ops(algo, count=16, load=0.01)
        store.checkpoint_and_compact(algo.placement)
        stale = store.checkpoint_path.read_bytes()
        _run_ops(algo, count=17, load=0.01, start_id=16)
        store.checkpoint_and_compact(algo.placement)
        store.close()
        # The crash state power loss allows without a directory fsync:
        # the second checkpoint's rename lost, its unlinks kept.
        store.checkpoint_path.write_bytes(stale)
        with pytest.raises(StoreCorruptionError):
            recover(tmp_path / "st")


class TestAdopt:
    def _recovered(self, tmp_path, store_factory, gamma=2):
        algo = RobustBestFit(gamma=gamma)
        algo.attach_store(store_factory())
        _run_ops(algo, count=10)
        return recover(tmp_path / "st")

    @pytest.mark.parametrize("resume_cls", [
        RobustBestFit, RobustFirstFit, RobustNextFit, RFI,
    ])
    def test_adopt_then_continue(self, tmp_path, store_factory,
                                 resume_cls):
        state = self._recovered(tmp_path, store_factory)
        resume = resume_cls(gamma=state.gamma)
        resume.adopt(state.placement)
        assert resume.placement is state.placement
        resume.place(Tenant(500, 0.3))  # index must be live
        resume.remove(500)

    def test_cubefit_cannot_adopt(self, tmp_path, store_factory):
        state = self._recovered(tmp_path, store_factory)
        with pytest.raises(ConfigurationError):
            CubeFit(gamma=state.gamma).adopt(state.placement)

    def test_adopt_rejects_gamma_mismatch(self, tmp_path, store_factory):
        state = self._recovered(tmp_path, store_factory, gamma=2)
        with pytest.raises(ConfigurationError):
            RobustBestFit(gamma=3).adopt(state.placement)

    def test_adopt_rejects_used_algorithm(self, tmp_path, store_factory):
        state = self._recovered(tmp_path, store_factory)
        resume = RobustBestFit(gamma=state.gamma)
        resume.place(Tenant(0, 0.2))
        with pytest.raises(ConfigurationError):
            resume.adopt(state.placement)


class TestOpenDurable:
    def test_second_run_on_a_used_directory_is_refused(self, tmp_path):
        # Without the refusal both soaks are acked and ok, and the next
        # recovery raises StoreCorruptionError: the second run logs its
        # own open_server records from id 0 onto the first run's WAL.
        directory = tmp_path / "st"
        built = []

        def factory():
            built.append(RobustBestFit(gamma=2))
            return built[-1]

        with DurableStore(directory) as store:
            first = run_soak(factory, SoakConfig(operations=40, seed=0),
                             store=store, checkpoint_every=100)
        assert first.ok
        on_disk = {path.name: path.read_bytes()
                   for path in sorted(directory.rglob("*"))
                   if path.is_file()}
        with DurableStore(directory) as store:
            with pytest.raises(ConfigurationError,
                               match="already holds a history"):
                run_soak(factory, SoakConfig(operations=40, seed=1),
                         store=store, checkpoint_every=100)
        assert {path.name: path.read_bytes()
                for path in sorted(directory.rglob("*"))
                if path.is_file()} == on_disk
        assert diff_placements(built[0].placement,
                               recover(directory).placement,
                               compare_tags=False) == []

    def test_recovery_fault_closes_the_store_and_a_retry_succeeds(
            self, tmp_path, store_factory, monkeypatch):
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store_factory())
        _run_ops(algo, count=10)
        closed = []
        real_close = DurableStore.close

        def close(store):
            closed.append(store)
            real_close(store)

        monkeypatch.setattr(DurableStore, "close", close)
        with faults.injected("store.recover.replay", action="raise"):
            with pytest.raises(FaultInjected):
                open_durable(tmp_path / "st")
        assert len(closed) == 1
        resume, state = open_durable(tmp_path / "st")
        try:
            assert state.records_replayed > 0
            assert resume.placement is state.placement
            assert diff_placements(algo.placement, resume.placement,
                                   compare_tags=False) == []
            before = resume.store.wal.next_seq
            resume.place(Tenant(100, 0.3))
            assert resume.store.wal.next_seq > before
        finally:
            resume.store.close()

    def test_fresh_start_builds_fresh_and_resume_needs_a_history(
            self, tmp_path):
        with pytest.raises(ConfigurationError, match="nothing to recover"):
            open_durable(tmp_path / "empty")
        algo, state = open_durable(tmp_path / "st",
                                   lambda: RobustBestFit(gamma=3))
        try:
            assert state is None
            assert algo.gamma == 3 and algo.store is not None
            assert json.loads((tmp_path / "st" / "meta.json")
                              .read_text())["gamma"] == 3
        finally:
            algo.store.close()


class TestObsIntegration:
    def test_wal_append_counter(self, store_factory):
        obs = MetricsRegistry()
        store = store_factory(obs=obs)
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store)
        _run_ops(algo, count=5)
        snap = obs.snapshot()
        assert snap["store.wal_append"]["value"] == store.wal.next_seq
        store.checkpoint(algo.placement)
        assert obs.snapshot()["store.checkpoint"]["value"] == 1

    def test_checkpoint_seconds_histogram(self, store_factory):
        obs = MetricsRegistry()
        store = store_factory(obs=obs)
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store)
        _run_ops(algo, count=5)
        store.checkpoint(algo.placement)
        seconds = obs.snapshot()["store.checkpoint.seconds"]
        assert seconds["count"] == 1
        assert seconds["total"] > 0.0
