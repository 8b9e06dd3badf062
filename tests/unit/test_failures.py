"""Unit tests for worst-overload failure planning."""

import itertools

import pytest

from repro.cluster.failures import (project_client_counts,
                                    worst_overload_failures)
from repro.errors import ConfigurationError


HOMES = {
    0: [0, 1],   # 10 clients
    1: [0, 2],   # 20 clients
    2: [1, 2],   # 30 clients
    3: [3, 4],   # 40 clients
}
CLIENTS = {0: 10, 1: 20, 2: 30, 3: 40}


class TestProjection:
    def test_baseline_split(self):
        counts = project_client_counts(HOMES, CLIENTS, ())
        assert counts[0] == pytest.approx(15.0)   # 5 + 10
        assert counts[1] == pytest.approx(20.0)   # 5 + 15
        assert counts[2] == pytest.approx(25.0)   # 10 + 15
        assert counts[3] == pytest.approx(20.0)

    def test_single_failure_redirects(self):
        counts = project_client_counts(HOMES, CLIENTS, (0,))
        # tenants 0 and 1 now fully on servers 1 and 2 respectively
        assert counts[1] == pytest.approx(10 + 15)
        assert counts[2] == pytest.approx(20 + 15)

    def test_dead_tenants_contribute_nothing(self):
        counts = project_client_counts(HOMES, CLIENTS, (3, 4))
        assert 3 not in counts and 4 not in counts
        # tenant 3 is gone entirely
        total = sum(counts.values())
        assert total == pytest.approx(10 + 20 + 30)


class TestWorstSelection:
    def test_zero_failures(self):
        plan = worst_overload_failures(HOMES, CLIENTS, 0)
        assert plan.failed == ()
        assert plan.projected_max_clients == pytest.approx(25.0)

    def test_single_failure_exhaustive(self):
        plan = worst_overload_failures(HOMES, CLIENTS, 1)
        # Check optimality against manual enumeration.
        best = 0.0
        for failed in [(s,) for s in range(5)]:
            counts = project_client_counts(HOMES, CLIENTS, failed)
            for fid in failed:
                counts.pop(fid, None)
            best = max(best, max(counts.values()))
        assert plan.projected_max_clients == pytest.approx(best)

    def test_two_failures_exhaustive_optimal(self):
        plan = worst_overload_failures(HOMES, CLIENTS, 2)
        best = 0.0
        for failed in itertools.combinations(range(5), 2):
            counts = project_client_counts(HOMES, CLIENTS, failed)
            for fid in failed:
                counts.pop(fid, None)
            if counts:
                best = max(best, max(counts.values()))
        assert plan.projected_max_clients == pytest.approx(best)

    def test_greedy_beyond_limit(self):
        plan = worst_overload_failures(HOMES, CLIENTS, 3,
                                       exhaustive_limit=2)
        assert len(plan.failed) == 3
        assert plan.projected_max_clients > 0

    def test_greedy_first_step_matches_exhaustive_single(self):
        exhaustive = worst_overload_failures(HOMES, CLIENTS, 1)
        greedy = worst_overload_failures(HOMES, CLIENTS, 1,
                                         exhaustive_limit=0)
        assert greedy.projected_max_clients == \
            pytest.approx(exhaustive.projected_max_clients)

    def test_restricted_candidates(self):
        plan = worst_overload_failures(HOMES, CLIENTS, 1, servers=[3])
        assert plan.failed == (3,)

    def test_invalid_f(self):
        with pytest.raises(ConfigurationError):
            worst_overload_failures(HOMES, CLIENTS, -1)
        with pytest.raises(ConfigurationError):
            worst_overload_failures(HOMES, CLIENTS, 10)

    def test_hottest_server_reported(self):
        plan = worst_overload_failures(HOMES, CLIENTS, 1)
        assert plan.hottest_server not in plan.failed
