"""Recreations of the paper's illustrative figures (1, 2, 3) as tests.

These pin down that our model reproduces the exact arithmetic of the
paper's worked examples.  The replica-to-server assignments are
hand-constructed to satisfy the captions' quoted failover sums (the
figures themselves are not machine-readable in the source text).
"""

import pytest

from repro.core.cube import ClassCubes
from repro.core.placement import PlacementState
from repro.core.tenant import Tenant, make_tenants
from repro.core.validation import audit
from tests.oracles import (exact_failover_load, failure_set_audit,
                           max_shared_tenants)

#: Figure 1's tenant sequence: a..f.
SIGMA = [0.6, 0.3, 0.6, 0.78, 0.12, 0.36]


class TestFigure1a:
    """gamma = 2: a 5-server single-failure-robust packing of sigma.

    Caption: "if S1 fails, the load of replica a redirects to S2; this
    gives a total load of 0.6 + 0.3 <= 1 for S2.  Similarly, loads of b
    and e redirect to S3 and load of f redirects to S5."
    """

    def build(self):
        ps = PlacementState(gamma=2)
        for _ in range(5):
            ps.open_server()
        # servers S1..S5 are ids 0..4
        ps.place_tenant(Tenant(0, 0.60), [0, 1])   # a: S1, S2
        ps.place_tenant(Tenant(1, 0.30), [0, 2])   # b: S1, S3
        ps.place_tenant(Tenant(2, 0.60), [1, 2])   # c: S2, S3
        ps.place_tenant(Tenant(3, 0.78), [3, 4])   # d: S4, S5
        ps.place_tenant(Tenant(4, 0.12), [0, 2])   # e: S1, S3
        ps.place_tenant(Tenant(5, 0.36), [0, 4])   # f: S1, S5
        return ps

    def test_caption_s2_arithmetic(self):
        ps = self.build()
        # S2 holds a2 (0.3) and c1 (0.3).
        assert ps.server(1).load == pytest.approx(0.60)
        # S1's failure redirects a's other half: 0.6 + 0.3 <= 1.
        extra = exact_failover_load(ps, 1, [0])
        assert extra == pytest.approx(0.30)
        assert ps.server(1).load + extra == pytest.approx(0.90)

    def test_caption_s3_and_s5_redirects(self):
        ps = self.build()
        # b and e redirect to S3 (id 2): +0.15 + 0.06
        assert exact_failover_load(ps, 2, [0]) == pytest.approx(0.21)
        # f redirects to S5 (id 4): +0.18
        assert exact_failover_load(ps, 4, [0]) == pytest.approx(0.18)

    def test_single_failure_robust_everywhere(self):
        """'In case of a single server's failure, the service continues
        without interruption.'"""
        ps = self.build()
        assert failure_set_audit(ps, failures=1).ok
        assert audit(ps, failures=1).ok


class TestFigure1b:
    """gamma = 3: a 6-server two-failure-robust packing of sigma.

    Caption: "if S1 and S2 fail, the total load of replicas of a
    redirects to S3, resulting in a total load of 0.46 + 2 x 0.2 <= 1."
    """

    def build(self):
        ps = PlacementState(gamma=3)
        for _ in range(6):
            ps.open_server()
        # replica loads: a .2, b .1, c .2, d .26, e .04, f .12
        ps.place_tenant(Tenant(0, 0.60), [0, 1, 2])   # a: S1 S2 S3
        ps.place_tenant(Tenant(1, 0.30), [0, 3, 5])   # b: S1 S4 S6
        ps.place_tenant(Tenant(2, 0.60), [1, 4, 5])   # c: S2 S5 S6
        ps.place_tenant(Tenant(3, 0.78), [3, 4, 2])   # d: S4 S5 S3
        ps.place_tenant(Tenant(4, 0.12), [0, 1, 5])   # e: S1 S2 S6
        ps.place_tenant(Tenant(5, 0.36), [0, 3, 5])   # f: S1 S4 S6
        return ps

    def test_caption_s3_arithmetic(self):
        ps = self.build()
        # S3 (id 2) holds a3 (0.2) and d3 (0.26): load 0.46.
        assert ps.server(2).load == pytest.approx(0.46)
        # S1 and S2 failing leaves a entirely on S3: +2 x 0.2.
        extra = exact_failover_load(ps, 2, [0, 1])
        assert extra == pytest.approx(0.40)
        assert ps.server(2).load + extra == pytest.approx(0.86)

    def test_two_failure_robust_everywhere(self):
        """'In case of simultaneous failure of two servers, the system
        continues uninterrupted.'"""
        ps = self.build()
        assert failure_set_audit(ps, failures=2,
                                 failover=exact_failover_load).ok
        assert failure_set_audit(ps, failures=2).ok


class TestFigure3:
    """tau = 3, gamma = 3 cube structure with 27 tenants: 'no two
    servers share replicas of more than one tenant, e.g., tenant x = 2
    is placed at slot (0,0,1) of the first cube, slot (1,0,0) of the
    second cube, and (0,1,0) of the third cube.'"""

    def test_tenant_2_slots(self):
        cubes = ClassCubes(tau=3, gamma=3)
        cubes.advance()  # tenant 1 consumed counter 0
        addrs = cubes.current_addresses()  # tenant labelled 2: counter 1
        assert (addrs[0].bin_index, addrs[0].slot) == (0, 1)  # (0,0),1
        # (1,0,0): bin (1,0) = 3, slot 0
        assert (addrs[1].bin_index, addrs[1].slot) == (3, 0)
        # (0,1,0): bin (0,1) = 1, slot 0
        assert (addrs[2].bin_index, addrs[2].slot) == (1, 0)

    def test_27_tenants_pairwise_share_at_most_one(self):
        from repro.core.cubefit import CubeFit
        # Loads in class 3 for gamma=3: replica in (1/6, 1/5], i.e.
        # tenant load in (1/2, 3/5].
        loads = [0.55] * 27
        algo = CubeFit(gamma=3, num_classes=5, first_stage=False)
        algo.consolidate(make_tenants(loads))
        assert max_shared_tenants(algo.placement) == 1
        assert failure_set_audit(algo.placement).ok
