"""Unit tests for the checked baseline heuristics."""

import pytest

from repro.algorithms.naive import (RobustBestFit, RobustFirstFit,
                                    RobustNextFit)
from repro.core.tenant import make_tenants
from repro.core.validation import audit
from repro.errors import ConfigurationError


ALL = [RobustBestFit, RobustFirstFit, RobustNextFit]


@pytest.mark.parametrize("cls", ALL)
@pytest.mark.parametrize("gamma", [2, 3])
def test_default_failure_budget_is_gamma_minus_one(cls, gamma):
    algo = cls(gamma=gamma)
    assert algo.failures == gamma - 1


@pytest.mark.parametrize("cls", ALL)
@pytest.mark.parametrize("gamma", [2, 3])
def test_robustness_random_loads(cls, gamma, seeded_tenants):
    algo = cls(gamma=gamma)
    algo.consolidate(seeded_tenants(200, seed=53))
    assert audit(algo.placement, failures=algo.failures).ok


@pytest.mark.parametrize("cls", ALL)
def test_custom_failure_budget(cls, seeded_tenants):
    algo = cls(gamma=2, failures=1)
    algo.consolidate(seeded_tenants(100, 0.01, 0.5, seed=59))
    assert audit(algo.placement, failures=1).ok


def test_negative_failures_rejected():
    with pytest.raises(ConfigurationError):
        RobustBestFit(gamma=2, failures=-1)


def test_firstfit_prefers_lowest_id():
    algo = RobustFirstFit(gamma=2)
    algo.consolidate(make_tenants([0.2, 0.2]))
    homes = algo.placement.tenant_servers(1)
    # Tenant 1 should reuse servers 0 and 1 (lowest feasible ids).
    assert set(homes.values()) == {0, 1}


def test_bestfit_prefers_fullest():
    algo = RobustBestFit(gamma=2)
    algo.consolidate(make_tenants([0.4, 0.1, 0.1]))
    # The small tenants stack onto the fullest feasible servers.
    assert algo.placement.num_nonempty_servers == 2


def test_nextfit_window_validation():
    with pytest.raises(ConfigurationError):
        RobustNextFit(gamma=3, window=2)


def test_nextfit_uses_recent_servers():
    algo = RobustNextFit(gamma=2)
    algo.consolidate(make_tenants([0.1] * 10))
    # With a window of 2*gamma = 4 and tiny tenants, the packing should
    # heavily reuse recent servers instead of opening one per replica.
    assert algo.placement.num_nonempty_servers <= 8


def test_nextfit_opens_new_when_window_is_full():
    algo = RobustNextFit(gamma=2)
    algo.consolidate(make_tenants([0.9, 0.9, 0.9]))
    # Class-size loads cannot share servers robustly: 6 servers needed.
    assert algo.placement.num_nonempty_servers == 6
