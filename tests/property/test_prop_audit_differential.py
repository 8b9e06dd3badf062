"""Differential testing of the audit against the enumeration oracle.

On small random packings (at most 8 servers, so the exponential
enumeration stays cheap) three checkers must agree on a strict
ordering:

* :func:`audit` (top-``f`` bound) and
  :func:`~tests.oracles.failure_set_audit` with the conservative
  :func:`~tests.oracles.failover_load` (enumerate all failure sets)
  are *equivalent*: with non-negative shared loads, the worst failure
  set is exactly the ``f`` largest shared partners.
* The enumeration under :func:`~tests.oracles.exact_failover_load`
  (true redistribution semantics) is never *stricter* than the
  conservative pair — a conservative audit may reject a packing the
  exact one admits, never the other way round.

The :class:`IncrementalAuditor` must agree with :func:`audit` after any
mutation history, since it is the same condition evaluated lazily.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import PlacementState
from repro.core.tenant import Tenant
from repro.core.validation import IncrementalAuditor, audit
from repro.errors import CapacityError
from tests.oracles import exact_failover_load, failure_set_audit

pytestmark = pytest.mark.usefixtures("checked_index")

MAX_SERVERS = 8


@st.composite
def small_packings(draw):
    """A placement with up to MAX_SERVERS servers and a few tenants.

    Built through the normal mutation API with *no* robustness
    admission control, so packings that violate the condition are
    generated too — the audits must order correctly on both sides.
    A removal op exercises the audits after ``remove_tenant``.
    """
    gamma = draw(st.integers(min_value=2, max_value=3))
    ps = PlacementState(gamma=gamma)
    n_servers = draw(st.integers(min_value=gamma, max_value=MAX_SERVERS))
    for _ in range(n_servers):
        ps.open_server()
    n_tenants = draw(st.integers(min_value=0, max_value=6))
    placed = []
    for tid in range(n_tenants):
        load = draw(st.floats(min_value=0.05, max_value=1.0))
        targets = draw(st.permutations(range(n_servers)))[:gamma]
        try:
            ps.place_tenant(Tenant(tid, load), targets)
        except CapacityError:
            continue
        placed.append(tid)
    if placed and draw(st.booleans()):
        ps.remove_tenant(draw(st.sampled_from(placed)))
    return ps


@given(packing=small_packings(), failures=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_topf_audit_equals_brute_force(packing, failures):
    fast = audit(packing, failures=failures)
    brute = failure_set_audit(packing, failures=failures)
    assert fast.min_slack == pytest.approx(brute.min_slack, abs=1e-9)
    assert {v.server_id for v in fast.violations} \
        == {v.server_id for v in brute.violations}


@given(packing=small_packings(), failures=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_conservative_never_more_permissive_than_exact(packing, failures):
    brute = failure_set_audit(packing, failures=failures)
    exact = failure_set_audit(packing, failures=failures,
                              failover=exact_failover_load)
    # Exact redistribution redirects at most the conservative bound, so
    # exact slack dominates and every exact violation is also flagged
    # by the conservative audits.
    assert exact.min_slack >= brute.min_slack - 1e-9
    exact_violators = {v.server_id for v in exact.violations}
    brute_violators = {v.server_id for v in brute.violations}
    assert exact_violators <= brute_violators, (
        f"conservative audit admitted servers the exact audit rejects: "
        f"{sorted(exact_violators - brute_violators)}")
    per_server_exact = {v.server_id: v for v in exact.violations}
    for server_id, violation in per_server_exact.items():
        conservative = next(v for v in brute.violations
                            if v.server_id == server_id)
        assert conservative.failover_load >= \
            violation.failover_load - 1e-9


@given(packing=small_packings(), failures=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_incremental_auditor_matches_full_audit(packing, failures):
    auditor = IncrementalAuditor(packing, failures=failures)
    expected = audit(packing, failures=failures)
    got = auditor.check()
    assert got.min_slack == pytest.approx(expected.min_slack, abs=1e-9)
    assert {v.server_id for v in got.violations} \
        == {v.server_id for v in expected.violations}
    # Mutate and re-check: the auditor only re-evaluates dirty servers.
    if packing.tenant_ids:
        packing.remove_tenant(packing.tenant_ids[0])
    next_tid = max(packing.tenant_ids, default=-1) + 1
    try:
        packing.place_tenant(
            Tenant(next_tid, 0.4),
            packing.server_ids[:packing.gamma])
    except CapacityError:
        pass
    expected = audit(packing, failures=failures)
    got = auditor.check()
    assert got.min_slack == pytest.approx(expected.min_slack, abs=1e-9)
    assert {v.server_id for v in got.violations} \
        == {v.server_id for v in expected.violations}
