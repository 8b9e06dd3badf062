"""``repro.obs`` — lightweight, dependency-free observability.

Three primitives, all stdlib-only:

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with percentile estimates (:mod:`repro.obs.metrics`);
* :class:`span` — nestable context-manager wall-clock timers
  (:mod:`repro.obs.spans`);
* :class:`EventJournal` — an append-only event log with JSON-lines
  export and a replay reader (:mod:`repro.obs.journal`).

Cost model
----------
Observability is **disabled by default**: nothing is recorded unless a
harness explicitly attaches a registry (e.g.
``run_soak(factory, obs=MetricsRegistry())``), and ``attach_obs(None)``
detaches it again.  Instrumented hot paths pay a single ``is None``
check when nothing is attached, so the benched placement loop is
unaffected.
"""

from __future__ import annotations

from .journal import (EventJournal, JournalEvent, ReplaySummary,
                      iter_jsonl, read_journal, replay)
from .metrics import (DEFAULT_BUCKETS, LATENCY_BUCKETS, Counter, Gauge,
                      Histogram, MetricsRegistry, absorb_snapshot,
                      merge_snapshots)
from .spans import current_span, span

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "LATENCY_BUCKETS",
    "merge_snapshots", "absorb_snapshot",
    "span", "current_span",
    "EventJournal", "JournalEvent", "ReplaySummary",
    "read_journal", "iter_jsonl", "replay",
]
