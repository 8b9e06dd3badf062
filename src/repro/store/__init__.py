"""``repro.store`` — durable placement state.

Write-ahead log (:mod:`~repro.store.wal`), self-contained checkpoints
(:mod:`~repro.store.snapshot`), checkpoint-plus-tail crash recovery and
the one durable bring-up, :func:`open_durable`
(:mod:`~repro.store.recovery`).  See ``docs/durability.md`` for the
on-disk formats and the recovery invariants.
"""

from __future__ import annotations

from .recovery import DurableStore, RecoveredState, open_durable, recover
from .snapshot import (CHECKPOINT_FORMAT, CHECKPOINT_VERSION, Checkpoint,
                       diff_acked, diff_placements, load_checkpoint,
                       save_checkpoint)
from .wal import (FSYNC_ALWAYS, FSYNC_NEVER, FSYNC_POLICIES, FSYNC_ROTATE,
                  WalRecord, WriteAheadLog)

__all__ = [
    "WriteAheadLog", "WalRecord",
    "FSYNC_ALWAYS", "FSYNC_ROTATE", "FSYNC_NEVER", "FSYNC_POLICIES",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
    "diff_placements", "diff_acked",
    "CHECKPOINT_FORMAT", "CHECKPOINT_VERSION",
    "DurableStore", "RecoveredState", "open_durable", "recover",
]
