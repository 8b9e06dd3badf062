"""Property-based tests for the PS machine and statistics helpers."""

from hypothesis import given, settings, strategies as st

from repro.analysis.stats import (confidence_interval_95, mean, percentile,
                                  relative_difference_percent)
from repro.cluster.engine import Simulator
from repro.cluster.machine import Machine


@given(demands=st.lists(st.floats(min_value=0.1, max_value=5.0),
                        min_size=1, max_size=12),
       cores=st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_all_jobs_complete_and_work_is_conserved(demands, cores):
    """Total busy core-seconds equals total demand; every job ends."""
    sim = Simulator()
    machine = Machine(sim, 0, cores=cores)
    done = []
    for i, demand in enumerate(demands):
        machine.submit(demand, lambda i=i: done.append(i))
    horizon = sum(demands) * len(demands) + 10.0
    sim.run_until(horizon)
    assert sorted(done) == list(range(len(demands)))
    busy = machine.utilization(horizon) * horizon * cores
    assert abs(busy - sum(demands)) < 1e-6 * max(1.0, sum(demands))


@given(demands=st.lists(st.floats(min_value=0.1, max_value=3.0),
                        min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_completion_order_matches_demand_order(demands):
    """With simultaneous submission and equal sharing, smaller demands
    finish no later than larger ones."""
    sim = Simulator()
    machine = Machine(sim, 0, cores=1)
    finished = {}
    for i, demand in enumerate(demands):
        machine.submit(demand, lambda i=i: finished.setdefault(i, sim.now))
    sim.run_until(sum(demands) * 10 + 10)
    order = sorted(range(len(demands)), key=lambda i: finished[i])
    for earlier, later in zip(order, order[1:]):
        assert demands[earlier] <= demands[later] + 1e-9


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                       min_size=1, max_size=100),
       q=st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=100)
def test_percentile_bounded_by_extremes(values, q):
    p = percentile(values, q)
    assert min(values) - 1e-9 <= p <= max(values) + 1e-9


@given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3),
                       min_size=1, max_size=50))
@settings(max_examples=100)
def test_percentile_monotone_in_q(values):
    qs = [0, 25, 50, 75, 99, 100]
    ps = [percentile(values, q) for q in qs]
    assert all(a <= b + 1e-9 for a, b in zip(ps, ps[1:]))


@given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3),
                       min_size=1, max_size=40))
@settings(max_examples=100)
def test_ci_contains_sample_mean(values):
    ci = confidence_interval_95(values)
    assert ci.low - 1e-9 <= mean(values) <= ci.high + 1e-9


@given(baseline=st.floats(min_value=1.0, max_value=1e5),
       candidate=st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=100)
def test_relative_difference_sign(baseline, candidate):
    diff = relative_difference_percent(baseline, candidate)
    if baseline > candidate:
        assert diff > 0
    elif baseline < candidate:
        assert diff < 0
    else:
        assert diff == 0
