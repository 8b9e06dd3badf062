"""Unit tests for the segmented write-ahead log."""

import json

import pytest

from repro.errors import ConfigurationError, StoreCorruptionError
from repro.store.wal import (FSYNC_ALWAYS, FSYNC_NEVER, FSYNC_ROTATE,
                             WalRecord, WriteAheadLog)


class TestAppendAndRead:
    def test_sequence_numbers_are_contiguous(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        seqs = [wal.append("place", {"tenant": i}) for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert wal.next_seq == 5
        assert wal.last_seq == 4
        records = list(wal.records())
        assert [r.seq for r in records] == seqs
        assert [r.data["tenant"] for r in records] == list(range(5))

    def test_records_start_seq_filters(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for i in range(10):
            wal.append("place", {"tenant": i})
        tail = list(wal.records(start_seq=7))
        assert [r.seq for r in tail] == [7, 8, 9]

    def test_payload_roundtrips_floats_exactly(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        load = 0.1 + 0.2  # 0.30000000000000004
        wal.append("place", {"load": load})
        wal.flush()
        (record,) = wal.records()
        assert record.data["load"] == load

    def test_empty_op_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(ConfigurationError):
            wal.append("", {})

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_bad_segment_records_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path, segment_records=0)


class TestSegmentRotation:
    def test_rotation_creates_segments_named_by_first_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=3)
        for i in range(7):
            wal.append("op", {"i": i})
        names = [p.name for p in wal.segments()]
        assert names == ["wal-000000000000.jsonl",
                         "wal-000000000003.jsonl",
                         "wal-000000000006.jsonl"]
        assert [r.seq for r in wal.records()] == list(range(7))

    def test_new_segment_entries_are_durable_unless_never(
            self, tmp_path, fs_events):
        for policy in (FSYNC_ALWAYS, FSYNC_ROTATE, FSYNC_NEVER):
            directory = tmp_path / policy
            wal = WriteAheadLog(directory, fsync=policy,
                                segment_records=4)
            for i in range(10):
                wal.append("op", {"i": i})
            wal.close()
            dir_fsync = fs_events.fsync_of(directory)
            segments = wal.segments()
            assert len(segments) == 3
            if policy == FSYNC_NEVER:
                assert dir_fsync not in fs_events
                continue
            # Segment k's directory entry is fsynced before the first
            # fsync of its records.
            for k, segment in enumerate(segments):
                first = fs_events.index(fs_events.fsync_of(segment))
                assert fs_events[:first].count(dir_fsync) == k + 1, policy

    def test_reader_skips_whole_segments_below_start(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=4)
        for i in range(12):
            wal.append("op", {"i": i})
        assert [r.seq for r in wal.records(start_seq=8)] == [8, 9, 10, 11]
        # Requesting from mid-segment still yields only the tail.
        assert [r.seq for r in wal.records(start_seq=9)] == [9, 10, 11]

    def test_truncate_before_removes_only_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=4,
                            fsync=FSYNC_NEVER)
        for i in range(12):
            wal.append("op", {"i": i})
        removed = wal.truncate_before(8)
        assert [p.name for p in removed] == ["wal-000000000000.jsonl",
                                             "wal-000000000004.jsonl"]
        assert [r.seq for r in wal.records(start_seq=8)] == [8, 9, 10, 11]

    def test_truncate_never_deletes_final_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=4)
        for i in range(4):
            wal.append("op", {"i": i})
        assert wal.truncate_before(10**9) == [] or \
            len(wal.segments()) >= 1


class TestReopen:
    def test_reopen_resumes_numbering(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=FSYNC_ROTATE) as wal:
            for i in range(5):
                wal.append("op", {"i": i})
        wal2 = WriteAheadLog(tmp_path)
        assert wal2.next_seq == 5
        assert wal2.append("op", {"i": 5}) == 5
        assert [r.seq for r in wal2.records()] == list(range(6))

    def test_reopen_truncates_torn_tail(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for i in range(3):
                wal.append("op", {"i": i})
        segment = tmp_path / "wal-000000000000.jsonl"
        with open(segment, "a") as handle:
            handle.write('{"seq": 3, "op": "op", "data"')  # torn
        wal2 = WriteAheadLog(tmp_path)
        assert wal2.next_seq == 3  # the torn record never committed
        assert wal2.append("op", {"i": 3}) == 3
        assert [r.seq for r in wal2.records()] == [0, 1, 2, 3]

    def test_reopen_truncates_newlineless_complete_json(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append("op", {"i": 0})
        segment = tmp_path / "wal-000000000000.jsonl"
        with open(segment, "a") as handle:
            handle.write(json.dumps({"seq": 1, "op": "op", "data": {}}))
        wal2 = WriteAheadLog(tmp_path)
        assert wal2.next_seq == 1


class TestCorruption:
    def _write_records(self, tmp_path, count, segment_records=512):
        wal = WriteAheadLog(tmp_path, segment_records=segment_records)
        for i in range(count):
            wal.append("op", {"i": i})
        wal.close()
        return wal

    def test_torn_final_line_is_skipped_by_reader(self, tmp_path):
        wal = self._write_records(tmp_path, 3)
        with open(tmp_path / "wal-000000000000.jsonl", "a") as handle:
            handle.write("garbage tail")
        assert [r.seq for r in wal.records()] == [0, 1, 2]

    def test_mid_stream_garbage_raises(self, tmp_path):
        wal = self._write_records(tmp_path, 4)
        path = tmp_path / "wal-000000000000.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "garbage in the middle\n"
        path.write_text("".join(lines))
        with pytest.raises(StoreCorruptionError):
            list(wal.records())

    def test_sequence_gap_raises(self, tmp_path):
        wal = self._write_records(tmp_path, 4)
        path = tmp_path / "wal-000000000000.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        del lines[1]
        path.write_text("".join(lines))
        with pytest.raises(StoreCorruptionError):
            list(wal.records())

    def test_missing_segment_raises(self, tmp_path):
        wal = self._write_records(tmp_path, 9, segment_records=3)
        (tmp_path / "wal-000000000003.jsonl").unlink()
        with pytest.raises(StoreCorruptionError):
            list(wal.records())

    def test_missing_head_segments_raise(self, tmp_path):
        wal = self._write_records(tmp_path, 9, segment_records=3)
        wal.truncate_before(6)
        # Records 2..5 are gone: starting there would silently resume
        # at 6, past the hole.
        with pytest.raises(StoreCorruptionError):
            list(wal.records(start_seq=2))
        assert [r.seq for r in wal.records(start_seq=6)] == [6, 7, 8]

    def test_reopen_with_mid_segment_garbage_raises(self, tmp_path):
        self._write_records(tmp_path, 4)
        path = tmp_path / "wal-000000000000.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "@@@ not json @@@\n"
        path.write_text("".join(lines))
        with pytest.raises(StoreCorruptionError):
            WriteAheadLog(tmp_path)

    def test_reopen_with_bad_tail_sequence_raises(self, tmp_path):
        self._write_records(tmp_path, 2)
        path = tmp_path / "wal-000000000000.jsonl"
        record = WalRecord(seq=7, op="op", data={})
        with open(path, "a") as handle:
            handle.write(record.to_json() + "\n")
        with pytest.raises(StoreCorruptionError):
            WriteAheadLog(tmp_path)


class TestCloseSafety:
    """``close()`` must release the file handle even when the final
    fsync fails — the regression where a fired ``store.wal.fsync``
    failpoint (or a real ``OSError``) during close leaked the handle
    and left the WAL half-closed."""

    def test_failed_fsync_on_close_still_releases_handle(self, tmp_path):
        from repro import faults
        from repro.errors import FaultInjected

        wal = WriteAheadLog(tmp_path)
        wal.append("op", {"i": 0})
        handle = wal._file
        with faults.injected("store.wal.fsync", action="raise"):
            with pytest.raises(FaultInjected):
                wal.close()
        # The error surfaced, but the handle is closed and detached.
        assert handle.closed
        assert wal._file is None
        # The record had already been flushed: a reopen sees it.
        assert [r.seq for r in WriteAheadLog(tmp_path).records()] == [0]

    def test_failed_real_fsync_on_close_still_releases(self, tmp_path,
                                                       monkeypatch):
        import os as _os

        wal = WriteAheadLog(tmp_path)
        wal.append("op", {"i": 0})
        handle = wal._file

        def broken_fsync(fileno):
            raise OSError(5, "I/O error")

        monkeypatch.setattr(_os, "fsync", broken_fsync)
        with pytest.raises(OSError):
            wal.close()
        assert handle.closed
        assert wal._file is None

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("op", {})
        wal.close()
        wal.close()  # no-op, no error
        assert wal._file is None

    def test_close_after_failed_close_is_noop(self, tmp_path):
        from repro import faults
        from repro.errors import FaultInjected

        wal = WriteAheadLog(tmp_path)
        wal.append("op", {})
        with faults.injected("store.wal.fsync", action="raise"):
            with pytest.raises(FaultInjected):
                wal.close()
        wal.close()  # second close after the failed one: clean no-op

    def test_append_after_close_reopens_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("op", {"i": 0})
        wal.close()
        wal.append("op", {"i": 1})
        wal.close()
        assert [r.seq for r in wal.records()] == [0, 1]
