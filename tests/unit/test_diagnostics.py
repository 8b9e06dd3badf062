"""Unit tests for packing diagnostics (explain)."""

import pytest

from repro.analysis.diagnostics import explain
from repro.core.cubefit import CubeFit
from repro.core.placement import PlacementState
from repro.core.tenant import Tenant
from repro.algorithms.rfi import RFI
from repro.workloads.distributions import UniformLoad
from repro.workloads.sequences import generate_sequence
from repro.errors import ConfigurationError


def hand_placement():
    ps = PlacementState(gamma=2)
    for _ in range(2):
        ps.open_server()
    ps.place_tenant(Tenant(0, 0.8), [0, 1])  # 0.4 each, shared 0.4
    return ps


class TestExplain:
    def test_decomposition_adds_up(self):
        report = explain(hand_placement())
        for server in report.servers:
            assert server.used + server.reserve + server.slack == \
                pytest.approx(server.capacity)

    def test_hand_values(self):
        report = explain(hand_placement())
        server = report.servers[0]
        assert server.used == pytest.approx(0.4)
        assert server.reserve == pytest.approx(0.4)
        assert server.slack == pytest.approx(0.2)
        assert server.replicas == 1
        assert server.tenants_shared_with == 1

    def test_fractions_sum_to_one(self):
        report = explain(hand_placement())
        total = (report.fraction("used") + report.fraction("reserve")
                 + report.fraction("slack"))
        assert total == pytest.approx(1.0)

    def test_invalid_fraction_kind(self):
        with pytest.raises(ConfigurationError):
            explain(hand_placement()).fraction("bogus")

    def test_empty_servers_skipped(self):
        ps = hand_placement()
        ps.open_server()  # empty
        report = explain(ps)
        assert report.num_servers == 2

    def test_cubefit_reserve_below_rfi(self):
        """The paper's mechanism: CubeFit bounds inter-server shared
        load, so its reserve fraction is lower than RFI's."""
        seq = generate_sequence(UniformLoad(0.5), 600, seed=0)
        cube = CubeFit(gamma=2, num_classes=10)
        cube.consolidate(seq)
        rfi = RFI(gamma=2)
        rfi.consolidate(seq)
        cube_report = explain(cube.placement)
        rfi_report = explain(rfi.placement, failures=1)
        assert cube_report.fraction("reserve") < \
            rfi_report.fraction("reserve")
        assert cube_report.fraction("used") > rfi_report.fraction("used")

    def test_class_breakdown_for_cubefit(self):
        seq = generate_sequence(UniformLoad(0.9), 200, seed=1)
        algo = CubeFit(gamma=2, num_classes=5)
        algo.consolidate(seq)
        report = explain(algo.placement)
        by_class = report.by_class()
        assert all(k is None or 1 <= k <= 4 for k in by_class)
        assert sum(len(v) for v in by_class.values()) == \
            report.num_servers

    def test_table_and_str(self):
        report = explain(hand_placement())
        assert "capacity split" in str(report)
        assert "mean_reserve" in report.to_table().to_csv()
