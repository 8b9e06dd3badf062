"""Append-only write-ahead log of placement operations.

The log is the commit point of the durable controller: the in-memory
:class:`~repro.core.placement.PlacementState` is authoritative only
until the process dies, so an operation counts as *committed* exactly
when its record has been appended (and, under the ``"always"`` fsync
policy, flushed to stable storage).  Recovery replays committed records
on top of the latest checkpoint; an operation whose record was lost to
a crash simply never happened.

Layout and format
-----------------
A log lives in a directory as a series of *segments*::

    wal-000000000000.jsonl
    wal-000000000512.jsonl
    ...

Each segment is JSON lines, one record per line, named after the
sequence number of its first record::

    {"data": {"load": 0.25, "servers": [0, 1], "tenant": 7},
     "op": "place", "seq": 12}

Sequence numbers are global, contiguous, and monotonically increasing
across segments; a gap or regression means the history cannot be
trusted and raises :class:`~repro.errors.StoreCorruptionError`.  A
segment rotates after ``segment_records`` records so that compaction
(:meth:`WriteAheadLog.truncate_before`) can drop whole files that a
checkpoint has made redundant.

Crash tolerance
---------------
A crash mid-append leaves a *torn tail*: a final line with no trailing
newline or invalid JSON.  The torn record was never committed, so both
the reader (:meth:`WriteAheadLog.records`) and the writer (which
truncates the tail on reopen) ignore it.  Invalid bytes anywhere other
than the final line of the final segment are corruption, not a crash
artifact, and raise.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .. import faults
from ..errors import (ConfigurationError, SimulatedCrash,
                      StoreCorruptionError)
from .snapshot import _fsync_directory, make_directory

PathLike = Union[str, Path]

#: fsync after every append — every committed record survives power loss.
FSYNC_ALWAYS = "always"
#: fsync only on segment rotation and close — bounded loss window.
FSYNC_ROTATE = "rotate"
#: never fsync — durability left to the OS (tests, throwaway runs).
FSYNC_NEVER = "never"

FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_ROTATE, FSYNC_NEVER)

_SEGMENT_RE = re.compile(r"^wal-(\d{12})\.jsonl$")


def _segment_name(first_seq: int) -> str:
    return f"wal-{first_seq:012d}.jsonl"


def _jsonable(value):
    """Best-effort conversion of numpy scalars et al. for json.dumps."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"WAL field of type {type(value).__name__} is not "
        f"JSON-serializable: {value!r}")


class WalRecord:
    """One committed operation: sequence number, op name, payload."""

    __slots__ = ("seq", "op", "data")

    def __init__(self, seq: int, op: str, data: Dict[str, object]) -> None:
        self.seq = seq
        self.op = op
        self.data = data

    def to_json(self) -> str:
        return json.dumps({"seq": self.seq, "op": self.op,
                           "data": self.data},
                          sort_keys=True, default=_jsonable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalRecord(seq={self.seq}, op={self.op!r}, {self.data!r})"


class WriteAheadLog:
    """Segmented JSONL log with monotonic sequence numbers.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.  Reopening a directory
        with existing segments resumes numbering after the last
        committed record (repairing a torn tail first).
    fsync:
        One of :data:`FSYNC_ALWAYS` (default), :data:`FSYNC_ROTATE`,
        :data:`FSYNC_NEVER`.
    segment_records:
        Records per segment before rotation.
    """

    def __init__(self, directory: PathLike, fsync: str = FSYNC_ALWAYS,
                 segment_records: int = 512) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown fsync policy {fsync!r}; "
                f"known: {list(FSYNC_POLICIES)}")
        if segment_records < 1:
            raise ConfigurationError(
                f"segment_records must be >= 1, got {segment_records}")
        self.directory = Path(directory)
        make_directory(self.directory, durable=fsync != FSYNC_NEVER)
        self.fsync = fsync
        self.segment_records = segment_records
        self._file = None
        self._segment_count = 0  # records in the open segment
        self._next_seq = 0
        self._recover_tail()

    # ------------------------------------------------------------------
    # Open / repair
    # ------------------------------------------------------------------
    def segments(self) -> List[Path]:
        """Segment paths in sequence order."""
        found: List[Tuple[int, Path]] = []
        for path in self.directory.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _seq, path in sorted(found)]

    def _recover_tail(self) -> None:
        """Position the writer after the last committed record.

        Scans the final segment only; a torn final line is truncated
        away so the segment stays valid JSONL for appends.
        """
        segments = self.segments()
        if not segments:
            return
        last = segments[-1]
        first_seq = int(_SEGMENT_RE.match(last.name).group(1))
        text = last.read_bytes().decode("utf-8", errors="replace")
        lines = text.splitlines(keepends=True)
        good_end = 0
        seq = first_seq
        count = 0
        for line_no, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                good_end += len(line)
                continue
            try:
                raw = json.loads(stripped)
                record_seq = int(raw["seq"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # A torn tail can only be the final line; garbage with
                # committed records after it is corruption, not a crash.
                if any(rest.strip() for rest in lines[line_no:]):
                    raise StoreCorruptionError(
                        f"{last} line {line_no}: unreadable WAL record "
                        f"followed by further records") from None
                break  # torn tail: drop the uncommitted final line
            if record_seq != seq:
                raise StoreCorruptionError(
                    f"{last}: expected sequence {seq}, found "
                    f"{record_seq}")
            if not line.endswith("\n"):
                break  # complete JSON but no newline: still torn
            seq += 1
            count += 1
            good_end += len(line)
        if good_end != len(text):
            with open(last, "r+", encoding="utf-8") as handle:
                handle.truncate(good_end)
        self._next_seq = seq
        self._segment_count = count

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """Sequence number the next append will receive (== number of
        committed records since the log's creation)."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the last committed record (-1 if none)."""
        return self._next_seq - 1

    def _open_segment(self) -> None:
        if self._file is not None:
            self._close_segment()
        path = self.directory / _segment_name(self._next_seq)
        self._file = open(path, "a", encoding="utf-8")
        self._segment_count = 0
        if self.fsync != FSYNC_NEVER:
            # A record fsynced into the new segment survives power loss
            # only if the segment's directory entry does too.
            _fsync_directory(self.directory)

    def _fsync(self, fileno: int) -> None:
        """fsync with the ``store.wal.fsync`` failpoint in front.

        A fired failpoint models an fsync *failure*: the bytes already
        reached the OS (the append wrote and flushed them), but the
        controller cannot confirm durability — so it must treat the
        operation as failed even though recovery may well see it.
        """
        if faults.active():
            faults.fire("store.wal.fsync")
        os.fsync(fileno)

    def _close_segment(self) -> None:
        """Flush, fsync (per policy) and close the open segment.

        Exception-safe: the handle is detached first and closed in a
        ``finally``, so a failed fsync (a fired ``store.wal.fsync``
        failpoint or a real ``OSError``) still releases the file — the
        caller sees the error, but the WAL is left cleanly closed, not
        half-closed around a leaked handle.  Idempotent: a second call
        is a no-op.
        """
        handle, self._file = self._file, None
        if handle is None:
            return
        try:
            handle.flush()
            if self.fsync in (FSYNC_ALWAYS, FSYNC_ROTATE):
                self._fsync(handle.fileno())
        finally:
            handle.close()

    def append(self, op: str, data: Dict[str, object]) -> int:
        """Commit one record; returns its sequence number."""
        if not op:
            raise ConfigurationError("WAL op must be non-empty")
        if self._file is None:
            # First append after open: continue the existing final
            # segment if it still has room, else start a fresh one.
            segments = self.segments()
            if segments and self._segment_count < self.segment_records:
                self._file = open(segments[-1], "a", encoding="utf-8")
            else:
                self._open_segment()
        elif self._segment_count >= self.segment_records:
            self._open_segment()
        record = WalRecord(seq=self._next_seq, op=op, data=dict(data))
        line = record.to_json() + "\n"
        if faults.active():
            # Before any byte: the record is never committed.
            faults.fire("store.wal.append")
            if faults.should("store.wal.torn_tail"):
                # Crash mid-write: half the line reaches the file, no
                # newline — the torn tail _recover_tail must repair.
                self._file.write(line[: max(1, len(line) // 2)])
                self._file.flush()
                raise SimulatedCrash(
                    f"failpoint store.wal.torn_tail tore record seq="
                    f"{record.seq} mid-write",
                    failpoint="store.wal.torn_tail")
        self._file.write(line)
        self._file.flush()
        if self.fsync == FSYNC_ALWAYS:
            self._fsync(self._file.fileno())
        self._next_seq += 1
        self._segment_count += 1
        if self._segment_count >= self.segment_records:
            self._open_segment()  # rotate eagerly so readers see a cut
        return record.seq

    def flush(self) -> None:
        """Flush (and under always/rotate policies fsync) pending bytes."""
        if self._file is not None:
            self._file.flush()
            if self.fsync in (FSYNC_ALWAYS, FSYNC_ROTATE):
                self._fsync(self._file.fileno())

    def close(self) -> None:
        self._close_segment()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self, start_seq: int = 0) -> Iterator[WalRecord]:
        """Committed records with ``seq >= start_seq``, in order.

        Segments that lie entirely below ``start_seq`` are skipped
        without being parsed — this is what makes checkpoint-plus-tail
        recovery O(tail), not O(history).  If the first segment read
        starts after ``start_seq``, the records in between are gone (a
        stale checkpoint over a compacted log) and this raises
        :class:`~repro.errors.StoreCorruptionError`.
        """
        self.flush()
        segments = self.segments()
        starts = [int(_SEGMENT_RE.match(p.name).group(1))
                  for p in segments]
        expected: Optional[int] = None
        for index, (path, first_seq) in enumerate(zip(segments, starts)):
            is_last = index == len(segments) - 1
            # Whole segment below start_seq?  Its records are
            # [first_seq, next segment's first seq).
            if not is_last and starts[index + 1] <= start_seq:
                continue
            if expected is None:
                if first_seq > start_seq:
                    raise StoreCorruptionError(
                        f"{path}: segment starts at {first_seq}, but "
                        f"records from {start_seq} were requested; the "
                        f"segments before it are missing")
                expected = first_seq
            elif first_seq != expected:
                raise StoreCorruptionError(
                    f"{path}: segment starts at {first_seq}, expected "
                    f"{expected}; a segment is missing")
            lines = path.read_text(encoding="utf-8",
                                   errors="replace").splitlines()
            for line_no, line in enumerate(lines, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                if faults.active():
                    # The default string mutator yields valid JSON with
                    # an impossible seq, so corruption is detected by
                    # the sequence check even on the final line (where
                    # unparseable bytes would pass as a torn tail).
                    stripped = faults.corrupt("store.wal.read", stripped)
                try:
                    raw = json.loads(stripped)
                    record = WalRecord(seq=int(raw["seq"]),
                                       op=str(raw["op"]),
                                       data=dict(raw.get("data", {})))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError) as err:
                    if is_last and line_no == len(lines):
                        return  # torn tail: never committed
                    raise StoreCorruptionError(
                        f"{path} line {line_no}: unreadable WAL record "
                        f"({err})") from None
                if record.seq != expected:
                    raise StoreCorruptionError(
                        f"{path} line {line_no}: sequence {record.seq} "
                        f"where {expected} was expected")
                expected += 1
                if record.seq >= start_seq:
                    yield record

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def truncate_before(self, seq: int) -> List[Path]:
        """Delete segments whose records all have ``seq < seq``.

        Called after a checkpoint covering everything below ``seq``;
        only whole segments are removed (the segment containing ``seq``
        and everything after it stays).  Returns the removed paths.
        """
        segments = self.segments()
        starts = [int(_SEGMENT_RE.match(p.name).group(1))
                  for p in segments]
        removed: List[Path] = []
        for index, path in enumerate(segments[:-1]):
            if starts[index + 1] <= seq:
                path.unlink()
                removed.append(path)
            else:
                break
        return removed
