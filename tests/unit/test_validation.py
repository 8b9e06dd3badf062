"""Unit tests for the robustness audits."""

import pytest

from repro.core.placement import PlacementState
from repro.core.tenant import Tenant
from repro.core.validation import IncrementalAuditor, audit
from repro.errors import RobustnessViolation
from tests.oracles import (exact_failover_load, failure_set_audit,
                           max_shared_tenants, shared_tenant_counts)

pytestmark = pytest.mark.usefixtures("checked_index")


def build_violating_placement():
    """Three servers; robust to one failure but not to two.

    Tenants 0.9 and 0.3 share all three servers: each server carries
    0.4 and every pairwise shared load is 0.4, so one failure gives 0.8
    (fine) but two failures give 1.2 — overload 0.2.
    """
    ps = PlacementState(gamma=3)
    for _ in range(3):
        ps.open_server()
    ps.place_tenant(Tenant(0, 0.9), [0, 1, 2])
    ps.place_tenant(Tenant(1, 0.3), [0, 1, 2])
    return ps


class TestAudit:
    def test_empty_placement_is_ok(self):
        ps = PlacementState(gamma=2)
        report = audit(ps)
        assert report.ok
        assert report.min_slack == pytest.approx(1.0)

    def test_detects_violation(self):
        ps = build_violating_placement()
        report = audit(ps)
        assert not report.ok
        violation = report.violations[0]
        assert violation.server_id in (0, 1, 2)
        assert violation.overload == pytest.approx(0.2)

    def test_raise_if_violated(self):
        ps = build_violating_placement()
        with pytest.raises(RobustnessViolation) as err:
            audit(ps).raise_if_violated()
        assert err.value.overload == pytest.approx(0.2)

    def test_ok_report_does_not_raise(self):
        ps = PlacementState(gamma=2)
        for _ in range(2):
            ps.open_server()
        ps.place_tenant(Tenant(0, 0.8), [0, 1])
        audit(ps).raise_if_violated()

    def test_failure_budget_parameter(self):
        ps = build_violating_placement()
        # Only robust for a single failure, not two.
        assert audit(ps, failures=1).ok
        assert not audit(ps, failures=2).ok

    def test_report_str(self):
        ps = build_violating_placement()
        text = str(audit(ps))
        assert "violations" in text

    def test_overload_is_measured_against_server_capacity(self):
        """At capacity 2.0 a server with load 1.25 and worst failover
        1.25 has slack -0.5: it is overloaded by 0.5, not by 1.5."""
        ps = PlacementState(gamma=2, capacity=2.0)
        for _ in range(2):
            ps.open_server()
        auditor = IncrementalAuditor(ps)
        for tid, load in enumerate([1.0, 1.0, 0.5]):
            ps.place_tenant(Tenant(tid, load), [0, 1])
        for report in (audit(ps), auditor.check()):
            assert report.min_slack == -0.5
            assert [v.overload for v in report.violations] \
                == [-report.min_slack] * 2
        with pytest.raises(RobustnessViolation,
                           match="exceeds capacity by 0.500000") as err:
            audit(ps).raise_if_violated()
        assert err.value.overload == -audit(ps).min_slack


class TestBruteForceAgreement:
    @pytest.mark.parametrize("gamma", [2, 3])
    def test_agrees_with_fast_audit_on_random_placements(
            self, gamma, seeded_rng):
        rng = seeded_rng(23)
        for trial in range(10):
            ps = PlacementState(gamma=gamma)
            n_servers = 6
            for _ in range(n_servers):
                ps.open_server()
            for tid in range(8):
                load = float(rng.uniform(0.05, 0.5))
                homes = list(rng.choice(n_servers, size=gamma,
                                        replace=False))
                try:
                    ps.place_tenant(Tenant(tid, load),
                                    [int(h) for h in homes])
                except Exception:
                    continue  # capacity exceeded: skip this tenant
            fast = audit(ps)
            slow = failure_set_audit(ps)
            assert fast.ok == slow.ok
            assert fast.min_slack == pytest.approx(slow.min_slack)

    def test_exact_audit_never_stricter(self, seeded_rng):
        """The conservative condition implies safety under exact
        redistribution."""
        rng = seeded_rng(29)
        for trial in range(5):
            ps = PlacementState(gamma=3)
            for _ in range(6):
                ps.open_server()
            for tid in range(6):
                load = float(rng.uniform(0.05, 0.4))
                homes = [int(h) for h in
                         rng.choice(6, size=3, replace=False)]
                try:
                    ps.place_tenant(Tenant(tid, load), homes)
                except Exception:
                    continue
            if audit(ps).ok:
                assert failure_set_audit(
                    ps, failover=exact_failover_load).ok


class TestSharedTenantCounts:
    def test_counts_pairs(self):
        ps = PlacementState(gamma=2)
        for _ in range(3):
            ps.open_server()
        ps.place_tenant(Tenant(0, 0.4), [0, 1])
        ps.place_tenant(Tenant(1, 0.4), [0, 1])
        ps.place_tenant(Tenant(2, 0.4), [1, 2])
        counts = shared_tenant_counts(ps)
        assert counts[(0, 1)] == 2
        assert counts[(1, 2)] == 1
        assert max_shared_tenants(ps) == 2

    def test_empty(self):
        ps = PlacementState(gamma=2)
        assert max_shared_tenants(ps) == 0


class TestIncrementalAuditor:
    def build(self):
        ps = PlacementState(gamma=2)
        for _ in range(4):
            ps.open_server()
        return ps

    def test_matches_full_audit_step_by_step(self):
        ps = self.build()
        auditor = IncrementalAuditor(ps)
        for tid, (load, targets) in enumerate(
                [(0.6, [0, 1]), (0.5, [1, 2]), (0.4, [2, 3]),
                 (0.2, [3, 0])]):
            ps.place_tenant(Tenant(tid, load), targets)
            expected = audit(ps)
            got = auditor.check()
            assert got.ok == expected.ok
            assert got.min_slack == pytest.approx(expected.min_slack)
            assert {v.server_id for v in got.violations} \
                == {v.server_id for v in expected.violations}

    def test_violation_clears_after_removal(self):
        ps = self.build()
        # Overload server 1 under the 1-failure condition:
        # load 0.9 plus worst failover 0.45 > 1.
        ps.place_tenant(Tenant(0, 0.9), [0, 1])
        ps.place_tenant(Tenant(1, 0.9), [1, 2])
        auditor = IncrementalAuditor(ps)
        report = auditor.check()
        assert not report.ok
        ps.remove_tenant(1)
        report = auditor.check()
        assert report.ok
        assert report.min_slack == pytest.approx(audit(ps).min_slack)

    def test_empty_placement(self):
        ps = PlacementState(gamma=2)
        auditor = IncrementalAuditor(ps)
        report = auditor.check()
        assert report.ok
        assert report.min_slack == pytest.approx(ps.capacity)

    def test_heap_compaction_under_churn(self):
        ps = self.build()
        auditor = IncrementalAuditor(ps)
        for round_ in range(200):
            ps.place_tenant(Tenant(round_, 0.3), [0, 1])
            assert auditor.check().ok
            ps.remove_tenant(round_)
            assert auditor.check().ok
        # The lazy min-heap must stay bounded relative to the fleet.
        assert len(auditor._heap) <= 4 * max(len(auditor._slack), 16) + 4

    def test_close_unsubscribes(self):
        ps = self.build()
        auditor = IncrementalAuditor(ps)
        auditor.check()
        auditor.close()
        ps.place_tenant(Tenant(0, 0.5), [0, 1])
        assert auditor._tracker._dirty == set()
