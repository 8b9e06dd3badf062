"""Property-based tests for the durable store.

Three invariants, each drawn over random workloads:

1. WAL records round-trip through their JSONL encoding exactly.
2. A checkpoint restores a placement that is indistinguishable from the
   one it captured.
3. Crashing after *any* prefix of soak operations and recovering yields
   the same state as the uninterrupted run at that point.
"""

from hypothesis import given, settings, strategies as st

from repro.algorithms.naive import RobustBestFit
from repro.core.tenant import Tenant
from repro.sim.soak import SoakConfig, run_soak_with_crash
from repro.store import diff_placements
from repro.store.snapshot import load_checkpoint, save_checkpoint
from repro.store.wal import WriteAheadLog

payloads = st.dictionaries(
    keys=st.sampled_from(["tenant", "load", "servers", "index"]),
    values=st.one_of(
        st.integers(min_value=-10**9, max_value=10**9),
        st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
        st.lists(st.integers(min_value=0, max_value=100), max_size=6)),
    max_size=4)


@given(entries=st.lists(
    st.tuples(st.sampled_from(["place", "remove", "update_load",
                               "open_server"]), payloads),
    min_size=1, max_size=30),
    segment_records=st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_wal_records_roundtrip(tmp_path_factory, entries,
                               segment_records):
    directory = tmp_path_factory.mktemp("wal")
    with WriteAheadLog(directory, fsync="never",
                       segment_records=segment_records) as wal:
        for op, data in entries:
            wal.append(op, data)
        got = [(r.op, r.data) for r in wal.records()]
    assert got == [(op, dict(data)) for op, data in entries]
    # Reopen resumes exactly after the last committed record.
    assert WriteAheadLog(directory).next_seq == len(entries)


@given(loads=st.lists(
    st.floats(min_value=1e-4, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=25),
    gamma=st.sampled_from([1, 2, 3]))
@settings(max_examples=30, deadline=None)
def test_checkpoint_restore_is_identity(tmp_path_factory, loads, gamma):
    algo = RobustBestFit(gamma=gamma)
    for i, load in enumerate(loads):
        algo.place(Tenant(i, load))
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    save_checkpoint(algo.placement, path, wal_applied=len(loads))
    restored = load_checkpoint(path).restore()
    assert diff_placements(algo.placement, restored) == []


@given(crash_after=st.integers(min_value=1, max_value=59),
       seed=st.integers(min_value=0, max_value=50),
       gamma=st.sampled_from([1, 2]),
       checkpoint_every=st.sampled_from([None, 7, 20]))
@settings(max_examples=15, deadline=None)
def test_crash_at_any_prefix_recovers_identically(
        tmp_path_factory, crash_after, seed, gamma, checkpoint_every):
    store_dir = tmp_path_factory.mktemp("store")
    report = run_soak_with_crash(
        lambda: RobustBestFit(gamma=gamma), store_dir,
        config=SoakConfig(operations=60, seed=seed),
        crash_after=crash_after, checkpoint_every=checkpoint_every,
        segment_records=8)
    assert report.diffs == []
    assert report.ok and report.result.ok
