"""Parallel == serial, bit for bit.

The parallel experiment engine's contract is that ``jobs`` never
changes an experiment's outcome: every sweep point / run / seed
re-derives its inputs from explicit seeds, runs against its own
registry, and is folded back in item order.  These tests pin that
contract for every harness that grew a ``jobs`` parameter — first with
fixed configurations at ``jobs`` in {1, 2, 4} (the committed
acceptance case), then with hypothesis-drawn configurations.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.rfi import RFI
from repro.core.cubefit import CubeFit
from repro.obs import EventJournal, MetricsRegistry
from repro.sim import (ChurnConfig, SoakConfig, compare, k_sensitivity,
                       mu_sensitivity, run_churn_seeds, run_soak_seeds)
from repro.workloads.distributions import (NormalizedClients, UniformLoad,
                                           ZipfClients)

N_TENANTS = 300  # small enough for CI, large enough to exercise packing


def _cubefit():
    return CubeFit(gamma=2, num_classes=5)


def _rfi():
    return RFI(gamma=2)


# ---------------------------------------------------------------------------
# The committed acceptance case: a 4-way parallel mu sweep must be
# bit-identical to the serial sweep.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [2, 4])
def test_mu_sweep_parallel_matches_serial(jobs):
    distribution = UniformLoad(0.6)
    serial = mu_sensitivity(distribution, n_tenants=N_TENANTS, jobs=1)
    parallel = mu_sensitivity(distribution, n_tenants=N_TENANTS,
                              jobs=jobs)
    assert serial.points == parallel.points
    assert serial.distribution == parallel.distribution


@pytest.mark.parametrize("jobs", [2, 4])
def test_k_sweep_parallel_matches_serial(jobs):
    distribution = UniformLoad(0.6)
    serial = k_sensitivity(distribution, n_tenants=N_TENANTS, jobs=1)
    parallel = k_sensitivity(distribution, n_tenants=N_TENANTS,
                             jobs=jobs)
    assert serial.points == parallel.points


def test_mu_sweep_obs_identical_across_jobs():
    """The deterministic observability surface matches across jobs.

    Wall-clock values (duration histograms' totals, the ``seconds``
    journal field) are inherently run-dependent; everything else —
    counter values, observation counts, event order and payloads —
    must be identical.
    """
    distribution = UniformLoad(0.6)
    deterministic = {}
    for jobs in (1, 4):
        registry = MetricsRegistry(journal=EventJournal())
        mu_sensitivity(distribution, n_tenants=N_TENANTS, jobs=jobs,
                       obs=registry)
        snapshot = registry.snapshot()
        counters = {name: data["value"]
                    for name, data in snapshot.items()
                    if data["type"] == "counter"}
        histogram_counts = {name: data["count"]
                            for name, data in snapshot.items()
                            if data["type"] == "histogram"}
        events = [(e.seq, e.type,
                   {k: v for k, v in e.data.items() if k != "seconds"})
                  for e in registry.journal]
        deterministic[jobs] = (counters, histogram_counts, events)
    assert deterministic[1] == deterministic[4]
    counters, _, _ = deterministic[1]
    assert counters.get("feasibility.exact", 0) > 0


def test_compare_parallel_matches_serial():
    factories = {"cubefit": _cubefit, "rfi": _rfi}
    distribution = UniformLoad(0.5)
    serial = compare(factories, distribution, N_TENANTS, runs=4,
                     base_seed=3, jobs=1)
    parallel = compare(factories, distribution, N_TENANTS, runs=4,
                       base_seed=3, jobs=4)
    assert serial.servers == parallel.servers
    assert serial.utilization == parallel.utilization
    assert serial.runs == parallel.runs


def test_soak_seeds_parallel_matches_serial():
    config = SoakConfig(operations=80)
    serial = run_soak_seeds(_cubefit, seeds=[0, 1, 2], config=config,
                            jobs=1)
    parallel = run_soak_seeds(_cubefit, seeds=[0, 1, 2], config=config,
                              jobs=3)
    for a, b in zip(serial, parallel):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert all(r.ok for r in serial)


def test_churn_seeds_parallel_matches_serial():
    config = ChurnConfig(arrival_rate=6.0, mean_lifetime=10.0,
                         horizon=40.0, sample_every=10.0)
    serial = run_churn_seeds(_rfi, UniformLoad(0.4), seeds=[0, 1],
                             config=config, jobs=1)
    parallel = run_churn_seeds(_rfi, UniformLoad(0.4), seeds=[0, 1],
                               config=config, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.samples == b.samples
        assert a.arrivals == b.arrivals
        assert a.departures == b.departures
        assert a.final_robust == b.final_robust


# ---------------------------------------------------------------------------
# Hypothesis: the identity holds for drawn configurations, not just the
# hand-picked ones.
# ---------------------------------------------------------------------------
@given(seed=st.integers(0, 1000),
       n_tenants=st.integers(50, 200),
       jobs=st.integers(2, 4),
       zipf=st.booleans())
@settings(max_examples=8, deadline=None)
def test_mu_sweep_identity_property(seed, n_tenants, jobs, zipf):
    distribution = NormalizedClients(ZipfClients()) if zipf \
        else UniformLoad(0.7)
    mus = (0.6, 0.85, 1.0)
    serial = mu_sensitivity(distribution, n_tenants=n_tenants, mus=mus,
                            seed=seed, jobs=1)
    parallel = mu_sensitivity(distribution, n_tenants=n_tenants,
                              mus=mus, seed=seed, jobs=jobs)
    assert serial.points == parallel.points


@given(base_seed=st.integers(0, 500),
       runs=st.integers(1, 4),
       jobs=st.integers(2, 4))
@settings(max_examples=8, deadline=None)
def test_compare_identity_property(base_seed, runs, jobs):
    factories = {"cubefit": _cubefit}
    distribution = UniformLoad(0.6)
    serial = compare(factories, distribution, 100, runs=runs,
                     base_seed=base_seed, jobs=1)
    parallel = compare(factories, distribution, 100, runs=runs,
                       base_seed=base_seed, jobs=jobs)
    assert serial.servers == parallel.servers
    assert serial.utilization == parallel.utilization
