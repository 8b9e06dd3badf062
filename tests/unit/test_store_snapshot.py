"""Unit tests for self-contained placement checkpoints."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.cubefit import CubeFit
from repro.core.placement import PlacementState
from repro.core.tenant import Replica, Tenant
from repro.errors import ConfigurationError, StoreCorruptionError
from repro.store.snapshot import (CHECKPOINT_VERSION, diff_acked,
                                  diff_placements, load_checkpoint,
                                  save_checkpoint)


def _standard_placement(gamma=2, capacity=1.0):
    placement = PlacementState(gamma=gamma, capacity=capacity)
    for _ in range(3):
        placement.open_server()
    placement.place_tenant(Tenant(0, 0.4), [0, 1])
    placement.place_tenant(Tenant(1, 0.3), [1, 2])
    placement.place_tenant(Tenant(2, 0.1 + 0.2), [0, 2])
    return placement


def _fanout_placement():
    """Unequal per-replica loads placed by hand — the shape a companion
    trace cannot describe, which v2 checkpoints must carry themselves."""
    placement = PlacementState(gamma=3, capacity=2.0)
    for _ in range(4):
        placement.open_server()
    placement.place(Replica(7, 0, 0.5), 0)
    placement.place(Replica(7, 1, 0.25), 1)
    placement.place(Replica(7, 2, 0.125), 3)
    placement.place(Replica(9, 0, 0.1 + 0.2), 2)
    placement.place(Replica(9, 1, 0.3), 0)
    placement.place(Replica(9, 2, 0.05), 1)
    return placement


#: Written by ``save_checkpoint`` before it switched from ``json.dump``
#: to one ``json.dumps`` call; see :func:`_golden_placement`.
GOLDEN = Path(__file__).parent.parent / "golden" / \
    "checkpoint_cubefit_g3.json"


def _golden_placement():
    """The placement in ``GOLDEN``: CubeFit at gamma 3, 36 tenants whose
    replica loads mostly need 17 significant digits, and one numpy
    scalar tag that only the ``default`` hook can encode."""
    algo = CubeFit(gamma=3)
    for i in range(36):
        algo.place(Tenant(i, (i % 13 + 1) / 29))
    algo.placement.server(0).tags["weight"] = np.int64(7)
    return algo.placement


class TestRoundTrip:
    def test_restore_matches_original(self, tmp_path):
        placement = _standard_placement()
        path = tmp_path / "checkpoint.json"
        save_checkpoint(placement, path, wal_applied=12,
                        algorithm="bestfit")
        checkpoint = load_checkpoint(path)
        assert checkpoint.wal_applied == 12
        assert checkpoint.algorithm == "bestfit"
        assert diff_placements(placement, checkpoint.restore()) == []

    def test_fanout_unequal_replica_loads_roundtrip(self, tmp_path):
        placement = _fanout_placement()
        path = tmp_path / "checkpoint.json"
        save_checkpoint(placement, path)
        restored = load_checkpoint(path).restore()
        assert diff_placements(placement, restored) == []
        # Per-replica loads survive JSON bit-for-bit.
        server = restored.server(2)
        assert server.replicas[(9, 0)].load == 0.1 + 0.2

    def test_empty_servers_and_next_id_roundtrip(self, tmp_path):
        placement = _standard_placement()
        placement.open_server()  # trailing empty server
        placement.remove_tenant(1)
        save_checkpoint(placement, tmp_path / "c.json")
        restored = load_checkpoint(tmp_path / "c.json").restore()
        assert diff_placements(placement, restored) == []
        assert restored._next_server_id == placement._next_server_id

    def test_tags_roundtrip(self, tmp_path):
        placement = _standard_placement()
        placement.server(1).tags["cube"] = 0
        placement.server(1).tags["mature"] = True
        save_checkpoint(placement, tmp_path / "c.json")
        restored = load_checkpoint(tmp_path / "c.json").restore()
        assert restored.server(1).tags == {"cube": 0, "mature": True}
        assert diff_placements(placement, restored) == []


class TestGoldenCheckpoint:
    def test_save_reproduces_golden_bytes(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(_golden_placement(), path, wal_applied=215,
                        algorithm="cubefit")
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_golden_restores_without_diff(self):
        checkpoint = load_checkpoint(GOLDEN)
        assert checkpoint.wal_applied == 215
        assert checkpoint.algorithm == "cubefit"
        assert diff_placements(_golden_placement(),
                               checkpoint.restore()) == []


class TestDiffPlacements:
    def test_reports_load_difference(self):
        a = _standard_placement()
        b = _standard_placement()
        b.remove_tenant(2)
        b.place_tenant(Tenant(2, 0.31), [0, 2])
        diffs = diff_placements(a, b)
        assert diffs and any("load" in d for d in diffs)

    def test_reports_assignment_difference(self):
        a = _standard_placement()
        b = _standard_placement()
        b.remove_tenant(2)
        b.place_tenant(Tenant(2, 0.1 + 0.2), [1, 2])
        assert diff_placements(a, b)

    def test_compare_tags_flag(self):
        a = _standard_placement()
        b = _standard_placement()
        b.server(0).tags["mature"] = False
        assert diff_placements(a, b)
        assert diff_placements(a, b, compare_tags=False) == []

    def test_gamma_mismatch_reported(self):
        a = _standard_placement(gamma=2)
        b = PlacementState(gamma=3)
        assert any("gamma" in d for d in diff_placements(a, b))


#: What ``_standard_placement`` acked: tenant -> servers by replica.
ACKED = {0: [0, 1], 1: [1, 2], 2: [0, 2]}


class TestDiffAcked:
    def test_exact_recovery_has_no_divergence(self):
        assert diff_acked(_standard_placement(), ACKED) == []

    def test_moved_replica_is_a_divergence(self):
        placement = _standard_placement()
        placement.remove_tenant(1)
        placement.place_tenant(Tenant(1, 0.3), [2, 1])
        assert diff_acked(placement, ACKED) == [
            "tenant 1: acked [1, 2], recovered [2, 1]"]

    def test_missing_tenant_is_a_divergence(self):
        placement = _standard_placement()
        placement.remove_tenant(2)
        assert diff_acked(placement, ACKED) == [
            "tenant 2: acked [0, 2], recovered []"]

    def test_unacked_extra_is_a_divergence_unless_in_flight(self):
        placement = _standard_placement()
        placement.place_tenant(Tenant(5, 0.1), [0, 1])
        assert diff_acked(placement, ACKED) == [
            "tenant 5: recovered, never acked"]
        assert diff_acked(placement, ACKED, in_flight=[4]) == [
            "tenant 5: recovered, never acked"]
        assert diff_acked(placement, ACKED, in_flight=(5,)) == []

    def test_in_flight_tenant_may_also_be_absent(self):
        assert diff_acked(_standard_placement(), ACKED,
                          in_flight=(3,)) == []


class TestMalformedCheckpoints:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "absent.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{ nope")
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"format": "something-else",
                                    "version": CHECKPOINT_VERSION}))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        save_checkpoint(_standard_placement(), tmp_path / "c.json")
        payload = json.loads((tmp_path / "c.json").read_text())
        payload["version"] = CHECKPOINT_VERSION + 1
        (tmp_path / "c.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "c.json")

    def test_server_id_beyond_next_id_is_corruption(self, tmp_path):
        save_checkpoint(_standard_placement(), tmp_path / "c.json")
        payload = json.loads((tmp_path / "c.json").read_text())
        payload["next_server_id"] = 1
        (tmp_path / "c.json").write_text(json.dumps(payload))
        checkpoint = load_checkpoint(tmp_path / "c.json")
        with pytest.raises(StoreCorruptionError):
            checkpoint.restore()

    def test_malformed_servers_payload(self, tmp_path):
        save_checkpoint(_standard_placement(), tmp_path / "c.json")
        payload = json.loads((tmp_path / "c.json").read_text())
        payload["servers"][0]["replicas"] = [["oops"]]
        (tmp_path / "c.json").write_text(json.dumps(payload))
        with pytest.raises(StoreCorruptionError):
            load_checkpoint(tmp_path / "c.json")

    def test_no_leftover_tmp_file(self, tmp_path):
        save_checkpoint(_standard_placement(), tmp_path / "c.json")
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name != "c.json"]
        assert leftovers == []

    def test_unencodable_tag_raises_before_any_file(self, tmp_path):
        placement = _standard_placement()
        placement.server(2).tags["owner"] = object()
        with pytest.raises(TypeError):
            save_checkpoint(placement, tmp_path / "c.json")
        assert list(tmp_path.iterdir()) == []
