"""Unit tests for the exact optimum oracle (`repro.analysis.optimum`)."""

import pytest

from repro.analysis.optimum import (BRUTE_FORCE_MAX_TENANTS,
                                    SearchBudget,
                                    assignment_to_placement,
                                    branch_and_bound_optimum,
                                    brute_force_optimum,
                                    certified_lower_bound)
from repro.core.validation import audit
from repro.errors import ConfigurationError
from tests.oracles import exact_failover_load, failure_set_audit


class TestKnownInstances:
    def test_two_half_plus_tenants_need_four_servers(self):
        # Two tenants of load 1.0 at gamma 2: each replica is 0.5, and
        # any shared server would see 0.5 + 0.5 + 0.5 on one failure.
        result = branch_and_bound_optimum([1.0, 1.0], 2)
        assert result.optimum() == 4
        assert result.certified

    def test_tiny_tenants_share_one_server_group(self):
        result = branch_and_bound_optimum([0.05] * 6, 3)
        assert result.optimum() == 3

    def test_single_tenant_gamma_one(self):
        result = branch_and_bound_optimum([0.7], 1)
        assert result.optimum() == 1
        assert result.assignment == ((0,),)

    def test_empty_instance_is_zero_servers(self):
        for solver in (branch_and_bound_optimum, brute_force_optimum):
            result = solver([], 2)
            assert result.optimum() == 0
            assert result.assignment == ()

    def test_interleaving_beats_ffd_seed(self):
        # Four tenants of 0.66 at gamma 2: pairwise-isolated packings
        # need 4 servers; no 3-server packing survives one failure, and
        # the oracle proves it.
        result = branch_and_bound_optimum([0.66] * 4, 2)
        assert result.optimum() == 4

    def test_relaxed_failures_reduce_servers(self):
        # At failures=0 the survivability rows collapse to capacity
        # rows, so the same instance packs tighter.
        strict = branch_and_bound_optimum([0.66] * 4, 2)
        relaxed = branch_and_bound_optimum([0.66] * 4, 2, failures=0)
        assert relaxed.optimum() < strict.optimum()
        assert relaxed.failures == 0

    def test_deterministic(self):
        loads = [0.31, 0.62, 0.17, 0.55, 0.48]
        first = branch_and_bound_optimum(loads, 2)
        second = branch_and_bound_optimum(loads, 2)
        assert first == second


class TestValidation:
    def test_bad_gamma_rejected(self):
        with pytest.raises(ConfigurationError):
            branch_and_bound_optimum([0.5], 0)

    def test_negative_failures_rejected(self):
        with pytest.raises(ConfigurationError):
            branch_and_bound_optimum([0.5], 2, failures=-1)

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ConfigurationError):
            branch_and_bound_optimum([0.5, 0.0], 2)

    def test_unpackable_tenant_rejected(self):
        # Replicas of 0.6 imply a worst-case level of 1.2 on the
        # tenant's own servers: no robust packing exists at all.
        with pytest.raises(ConfigurationError, match="cannot be packed"):
            branch_and_bound_optimum([1.2], 2)

    def test_brute_force_size_cap(self):
        loads = [0.1] * (BRUTE_FORCE_MAX_TENANTS + 1)
        with pytest.raises(ConfigurationError, match="exhaustive"):
            brute_force_optimum(loads, 2)

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ConfigurationError):
            SearchBudget(max_seconds=0.0)


class TestBudgetInterval:
    LOADS = [0.37, 0.58, 0.23, 0.71, 0.45, 0.62, 0.29, 0.51,
             0.33, 0.66, 0.41, 0.55, 0.27, 0.61, 0.35, 0.49]

    def test_exhausted_budget_certifies_interval(self):
        result = branch_and_bound_optimum(
            self.LOADS, 2, budget=SearchBudget(max_nodes=5))
        assert result.exhausted
        assert not result.certified
        assert result.lower_bound <= result.upper_bound
        assert certified_lower_bound(self.LOADS, 2) \
            <= result.lower_bound
        with pytest.raises(ConfigurationError, match="not certified"):
            result.optimum()
        assert "OPT in [" in str(result)
        assert "exhausted" in str(result)

    def test_interval_packing_is_robust(self):
        result = branch_and_bound_optimum(
            self.LOADS, 2, budget=SearchBudget(max_nodes=5))
        placement = assignment_to_placement(self.LOADS,
                                            result.assignment, 2)
        assert placement.num_servers == result.upper_bound
        assert audit(placement, failures=1).ok

    def test_time_budget_is_honoured(self):
        result = branch_and_bound_optimum(
            self.LOADS, 2, budget=SearchBudget(max_nodes=None,
                                               max_seconds=0.05))
        assert result.lower_bound <= result.upper_bound

    def test_certified_repr(self):
        result = branch_and_bound_optimum([1.0, 1.0], 2)
        text = str(result)
        assert "OPT 4" in text
        assert "exhausted" not in text


class TestMaterialization:
    def test_assignment_round_trips_through_placement(self):
        loads = [0.31, 0.62, 0.17, 0.55]
        result = branch_and_bound_optimum(loads, 2)
        placement = assignment_to_placement(loads, result.assignment, 2)
        assert placement.num_tenants == len(loads)
        assert placement.num_servers == result.optimum()
        assert audit(placement, failures=1).ok
        # The exact redistribution semantics are at least as permissive.
        assert failure_set_audit(placement, failures=1,
                                 failover=exact_failover_load).ok

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="covers"):
            assignment_to_placement([0.5, 0.5], ((0, 1),), 2)


class TestCertifiedLowerBound:
    def test_weight_bound_only_at_full_budget(self):
        loads = [0.4] * 6
        # At failures == gamma - 1 the Theorem 2 weight bound applies;
        # at a relaxed budget only the capacity bound is valid.
        full = certified_lower_bound(loads, 2)
        relaxed = certified_lower_bound(loads, 2, failures=0)
        assert full >= relaxed >= 1

    def test_never_exceeds_optimum(self):
        loads = [0.52, 0.38, 0.61, 0.44, 0.29]
        for gamma in (1, 2, 3):
            lb = certified_lower_bound(loads, gamma)
            assert lb <= branch_and_bound_optimum(loads, gamma).optimum()


class TestBruteForce:
    def test_agrees_on_a_known_pathology(self):
        # The FFD seed is beatable here; both engines must find it.
        loads = [0.66, 0.66, 0.34, 0.34]
        brute = brute_force_optimum(loads, 2)
        bnb = branch_and_bound_optimum(loads, 2)
        assert brute.optimum() == bnb.optimum()

    def test_result_is_certified_and_audited(self):
        result = brute_force_optimum([0.4, 0.5, 0.6], 2)
        assert result.certified
        assert result.nodes == 0  # no search machinery at all
        placement = assignment_to_placement([0.4, 0.5, 0.6],
                                            result.assignment, 2)
        assert audit(placement, failures=1).ok
