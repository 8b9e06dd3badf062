"""Deterministic process-pool map for experiment fan-out.

The sweeps, comparisons and soak batteries are embarrassingly parallel
— every point regenerates its own workload from an explicit seed and
shares no state with its neighbours — so the engine here is
deliberately small: :func:`pmap` forks a pool, runs one item per task,
and collects results **in item order**.  Three properties make it safe
to wire through every harness:

* **Bit-identical to serial.**  Each item runs against its own fresh
  :class:`~repro.obs.MetricsRegistry` (when the caller attached one)
  in *both* the serial and the parallel path, and the parent absorbs
  the per-item snapshots in item order.  Nothing about the result or
  the merged observability depends on ``jobs``.
* **Nothing exotic crosses the process boundary.**  Workers are forked,
  so the callable and the items ride along in the copied address space
  (lambdas and closures work); only indices are sent to workers and
  only ``(result, snapshot, events)`` triples come back, which must be
  picklable.
* **Graceful degradation.**  ``jobs=1``, a platform without ``fork``,
  fewer than two items, or a nested call from inside a worker all run
  the plain in-process loop.

Seeds for multi-seed batteries come from :func:`derive_seed`, which
stretches a base seed through :class:`numpy.random.SeedSequence` so
per-item seeds are decorrelated yet reproducible from ``(base_seed,
index)`` alone.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..errors import ConfigurationError
from ..obs import EventJournal, MetricsRegistry, absorb_snapshot

#: Set in forked workers; a nested ``pmap`` inside a worker quietly
#: runs serially instead of forking grandchildren.
_IN_WORKER = False

#: ``(fn, items, want_obs)`` staged by the parent immediately before
#: forking; children inherit it through the copied address space.
_PAYLOAD: Optional[Tuple[Callable, Sequence, bool]] = None


def validate_jobs(jobs: object) -> int:
    """Check a ``--jobs``-style value and return it as an ``int``.

    Raises
    ------
    ConfigurationError
        If ``jobs`` is not an integer at least 1 (bools are rejected:
        ``--jobs True`` is a caller bug, not a worker count).
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigurationError(
            f"jobs must be an integer >= 1, got {jobs!r}")
    if jobs < 1:
        raise ConfigurationError(
            f"jobs must be an integer >= 1, got {jobs}")
    return jobs


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic, decorrelated per-item seed.

    ``SeedSequence`` spawn keys guarantee independence between items
    even for adjacent base seeds, and the derivation depends only on
    the two integers — the same ``(base_seed, index)`` yields the same
    seed on every platform and at every ``jobs`` setting.
    """
    sequence = np.random.SeedSequence(entropy=int(base_seed),
                                      spawn_key=(int(index),))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _item_registry(want_obs: bool) -> Optional[MetricsRegistry]:
    if not want_obs:
        return None
    return MetricsRegistry(journal=EventJournal())


def _run_item(index: int):
    """Worker body: run one item against a fresh registry."""
    global _IN_WORKER
    _IN_WORKER = True
    fn, items, want_obs = _PAYLOAD
    if faults.active():
        # Worker death mid-item: forked workers inherit the parent's
        # armed failpoints, so the raise happens in the child and
        # propagates to the parent through pool.map.
        faults.fire("par.worker")
    registry = _item_registry(want_obs)
    result = fn(items[index], registry)
    if registry is None:
        return result, None, None
    events = [(event.type, event.data) for event in registry.journal]
    return result, registry.snapshot(), events


def _absorb(obs: Optional[MetricsRegistry], snapshot, events) -> None:
    if obs is None or snapshot is None:
        return
    if faults.active() and faults.should("par.absorb.drop"):
        # One worker's observability snapshot is lost in transit: the
        # results are intact, the merged counters under-count.
        return
    absorb_snapshot(obs, snapshot)
    for event_type, data in events:
        obs.emit(event_type, **data)


def pmap(fn: Callable, items: Sequence, jobs: int = 1,
         obs: Optional[MetricsRegistry] = None) -> List:
    """Map ``fn`` over ``items`` on ``jobs`` worker processes.

    ``fn(item, registry)`` is called once per item with a fresh
    :class:`~repro.obs.MetricsRegistry` (or ``None`` when ``obs`` is
    ``None`` / observability is globally off); whatever the item's run
    records there is absorbed into ``obs`` in item order, counters
    summed and histograms merged bucket-wise, journal events re-emitted
    in sequence.  Results come back as a list in item order.

    ``jobs=1`` (the default), fewer than two items, platforms without
    ``fork``, and nested calls from inside a worker all run the exact
    same per-item protocol in-process, so a parallel run is
    bit-identical to a serial one.

    Exceptions raised by ``fn`` propagate to the caller in both modes.
    """
    global _PAYLOAD
    jobs = validate_jobs(jobs)
    want_obs = obs is not None
    items = list(items)
    workers = min(jobs, len(items))
    if workers < 2 or _IN_WORKER or not fork_available():
        results = []
        for item in items:
            if faults.active():
                faults.fire("par.worker")  # same seam as the fork path
            registry = _item_registry(want_obs)
            result = fn(item, registry)
            if registry is not None:
                events = [(event.type, event.data)
                          for event in registry.journal]
                _absorb(obs, registry.snapshot(), events)
            results.append(result)
        return results

    context = multiprocessing.get_context("fork")
    _PAYLOAD = (fn, items, want_obs)
    pool = context.Pool(processes=workers)
    results: List = []
    try:
        # imap streams outcomes back in item order, so snapshots are
        # absorbed while later items still run — same deterministic
        # merge order as the barrier, without holding every snapshot.
        for result, snapshot, events in pool.imap(
                _run_item, range(len(items)), chunksize=1):
            _absorb(obs, snapshot, events)
            results.append(result)
        pool.close()
        pool.join()
    except BaseException:
        # A worker raised, or the *parent* failed mid-collection
        # (absorb error, KeyboardInterrupt): the remaining workers are
        # killed and reaped before the exception propagates — no
        # zombies, no orphaned result pipes.
        pool.terminate()
        pool.join()
        raise
    finally:
        _PAYLOAD = None
    return results
