"""Oracle-anchored differential properties.

Three layers of trust, each checked against the one below:

* ``brute_force_optimum`` — independent exhaustive enumeration —
  must agree exactly with ``branch_and_bound_optimum`` on tiny
  instances.
* The oracle's packings must pass the float robustness audits — both
  the worst-case ``audit`` and the exhaustive
  ``tests.oracles.failure_set_audit`` —
  proving the exact rational model and the float audit accept the same
  packings.
* Every heuristic is sandwiched: ``certified_lower_bound <= oracle LB
  <= OPT <= heuristic servers``, *at the heuristic's own guaranteed
  failure budget* — RFI reserves for one failure regardless of gamma,
  so pinning it against the ``gamma - 1`` oracle would be comparing
  solutions of different problems (and RFI would win).

Loads are drawn on a coarse two-decimal grid in ``[0.05, 0.95]`` — the
same regime the simulator's distributions produce — so the search stays
milliseconds-fast while still exercising tight packings.
"""

from hypothesis import given, settings, strategies as st

from repro.algorithms.base import make_algorithm
from repro.analysis.optimum import (SearchBudget, assignment_to_placement,
                                    branch_and_bound_optimum,
                                    brute_force_optimum,
                                    certified_lower_bound)
from repro.core.tenant import Tenant
from repro.core.validation import audit
from tests.oracles import failure_set_audit

GRID = st.integers(5, 95).map(lambda v: v / 100)

#: Heuristics the sandwich property pins against the oracle.
HEURISTICS = ("cubefit", "rfi", "firstfit", "bestfit", "nextfit",
              "offline-ffd")


def _tiny_instance(data):
    """(loads, gamma) kept inside the brute-force-friendly regime.

    Six mid-load tenants at gamma 3 have millions of canonical
    prefixes — the enumeration is exhaustive by design — so gamma 3
    stays at five tenants.
    """
    gamma = data.draw(st.integers(1, 3), label="gamma")
    max_n = 5 if gamma == 3 else 6
    loads = data.draw(st.lists(GRID, min_size=1, max_size=max_n),
                      label="loads")
    return loads, gamma


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_brute_force_matches_branch_and_bound(data):
    loads, gamma = _tiny_instance(data)
    brute = brute_force_optimum(loads, gamma)
    bnb = branch_and_bound_optimum(loads, gamma)
    assert brute.certified and bnb.certified
    assert brute.upper_bound == bnb.upper_bound, (
        f"brute force found {brute.upper_bound} servers, "
        f"branch-and-bound {bnb.upper_bound} for {loads} at "
        f"gamma={gamma}")
    for result in (brute, bnb):
        placement = assignment_to_placement(loads, result.assignment,
                                            gamma)
        assert placement.num_servers == result.upper_bound
        assert audit(placement, failures=gamma - 1).ok
        assert failure_set_audit(placement, failures=gamma - 1).ok


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_oracle_sandwiches_every_heuristic(data):
    gamma = data.draw(st.integers(2, 3), label="gamma")
    loads = data.draw(st.lists(GRID, min_size=1, max_size=10),
                      label="loads")
    tenants = [Tenant(tenant_id=i, load=load)
               for i, load in enumerate(loads)]
    oracles = {}
    for name in HEURISTICS:
        algo = make_algorithm(name, gamma)
        algo.consolidate(tenants)
        f = algo.guaranteed_failures
        if f not in oracles:
            result = branch_and_bound_optimum(
                loads, gamma, failures=f,
                budget=SearchBudget(max_nodes=20_000))
            assert certified_lower_bound(loads, gamma, f) \
                <= result.lower_bound
            assert result.lower_bound <= result.upper_bound
            placement = assignment_to_placement(loads,
                                                result.assignment, gamma)
            assert placement.num_servers == result.upper_bound
            assert audit(placement, failures=f).ok
            oracles[f] = result
        assert algo.placement.num_servers >= oracles[f].lower_bound, (
            f"{name} used {algo.placement.num_servers} servers, below "
            f"the certified lower bound {oracles[f].lower_bound} for "
            f"{loads} at gamma={gamma}, failures={f}")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_exhausted_budget_still_certifies(data):
    loads = data.draw(st.lists(GRID, min_size=12, max_size=16),
                      label="loads")
    starved = branch_and_bound_optimum(
        loads, 2, budget=SearchBudget(max_nodes=3))
    assert starved.lower_bound <= starved.upper_bound
    assert certified_lower_bound(loads, 2) <= starved.lower_bound
    # The interval's packing is real and robust even when the search
    # was cut off immediately.
    placement = assignment_to_placement(loads, starved.assignment, 2)
    assert placement.num_servers == starved.upper_bound
    assert audit(placement, failures=1).ok
    if starved.exhausted:
        # A later, bigger-budget solve can only tighten the interval.
        better = branch_and_bound_optimum(
            loads, 2, budget=SearchBudget(max_nodes=50_000))
        assert starved.lower_bound <= better.lower_bound
        assert better.upper_bound <= starved.upper_bound
