"""Shared fixtures for the whole test suite.

Four families:

* **Seeded workloads** — ``seeded_loads`` / ``seeded_tenants`` build
  the ``default_rng(seed).uniform(...)`` load lists that most
  algorithm tests use, so every test names its seed instead of
  open-coding the generator.
* **Durable stores** — ``store_factory`` creates
  :class:`repro.store.DurableStore` instances under the test's tmp
  dir and guarantees they are closed at teardown (a leaked open WAL
  file handle hides fsync/close bugs from later tests); ``fs_events``
  records ``os.replace`` and ``os.fsync`` calls in order, so a test
  can check that a rename or a new file is durable.
* **Failpoint hygiene** — the autouse ``clean_failpoints`` fixture
  clears the global registry around every test, so an armed failpoint
  or a leftover fire count can never leak across tests (the seams are
  compiled into production code paths and consult process-global
  state).
* **Index cross-check** — ``checked_index`` checks every
  ``PlacementState.worst_failover_load`` read against the from-scratch
  rebuild in :mod:`tests.oracles`; the placement-core modules take it
  through ``pytestmark = pytest.mark.usefixtures("checked_index")``.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro import faults

#: Seed used when a test does not care which seed it gets.
DEFAULT_WORKLOAD_SEED = 53


@pytest.fixture(autouse=True)
def clean_failpoints():
    """Reset the global failpoint registry around every test."""
    faults.FAILPOINTS.clear()
    faults.FAILPOINTS.reset_counts()
    faults.FAILPOINTS.attach_obs(None)
    yield
    faults.FAILPOINTS.clear()
    faults.FAILPOINTS.reset_counts()
    faults.FAILPOINTS.attach_obs(None)


@pytest.fixture
def seeded_rng():
    """Factory for explicitly seeded numpy generators: tests that need
    draws beyond a load list (server choices, trial loops) name their
    seed through this instead of importing numpy themselves."""
    def make(seed=DEFAULT_WORKLOAD_SEED):
        return np.random.default_rng(seed)
    return make


@pytest.fixture
def seeded_loads():
    """Factory for the canonical seeded uniform load lists.

    ``seeded_loads(200, seed=53)`` is byte-identical to the historical
    ``list(np.random.default_rng(53).uniform(0.01, 1.0, 200))``.
    """
    def make(n, low=0.01, high=1.0, seed=DEFAULT_WORKLOAD_SEED):
        rng = np.random.default_rng(seed)
        return list(rng.uniform(low, high, n))
    return make


@pytest.fixture
def seeded_tenants(seeded_loads):
    """Factory producing ``make_tenants`` sequences from seeded loads."""
    from repro.core.tenant import make_tenants

    def make(n, low=0.01, high=1.0, seed=DEFAULT_WORKLOAD_SEED):
        return make_tenants(seeded_loads(n, low, high, seed))
    return make


@pytest.fixture
def store_factory(tmp_path):
    """Factory for durable stores under ``tmp_path``; closes them all
    at teardown regardless of test outcome."""
    from repro.store import DurableStore

    stores = []

    def make(name="st", **kwargs):
        store = DurableStore(tmp_path / name, **kwargs)
        stores.append(store)
        return store

    yield make
    for store in stores:
        try:
            store.close()
        except Exception:
            pass  # the test already broke the store on purpose


class FsEvents(list):
    """``os.replace`` and ``os.fsync`` calls in call order, as
    ``("replace", target name)`` and ``("fsync", (st_dev, st_ino))``."""

    @staticmethod
    def fsync_of(path):
        """The event an fsync of ``path`` (a file or a directory)
        records."""
        stat = os.stat(path)
        return ("fsync", (stat.st_dev, stat.st_ino))


@pytest.fixture
def fs_events(monkeypatch):
    """Record every ``os.replace`` and ``os.fsync`` (see
    :class:`FsEvents`); the real calls still run."""
    events = FsEvents()
    real_replace, real_fsync = os.replace, os.fsync

    def replace(src, dst, *args, **kwargs):
        events.append(("replace", Path(dst).name))
        return real_replace(src, dst, *args, **kwargs)

    def fsync(fd):
        stat = os.fstat(fd)
        events.append(("fsync", (stat.st_dev, stat.st_ino)))
        return real_fsync(fd)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    return events


@pytest.fixture
def checked_index(monkeypatch):
    """Wrap ``PlacementState.worst_failover_load`` so each served value,
    and the shared-load row behind it, is compared with the rebuild
    (:func:`tests.oracles.check_index`): a missed invalidation or a
    drifted index fails the read with ``AssertionError``."""
    from repro.core.placement import PlacementState
    from tests.oracles import check_index

    served = PlacementState.worst_failover_load

    def checked(self, server_id, failures=None):
        value = served(self, server_id, failures)
        f = self.gamma - 1 if failures is None else failures
        if f > 0:
            check_index(self, server_id, f, value)
        return value

    monkeypatch.setattr(PlacementState, "worst_failover_load", checked)
