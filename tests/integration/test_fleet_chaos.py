"""Whole-shard chaos drill conformance.

:func:`repro.fleet.run_fleet_chaos` crashes a shard mid-traffic and
asserts the fleet contract: replica-for-replica recovery from the
shard's own WAL + checkpoint, typed errors while down, router
reconciliation, audit-clean finish.  These tests run the drill and
check both the contract and the drill's own determinism.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (FleetChaosConfig, FleetChaosReport,
                         PlacementFleet, run_fleet_chaos)
from repro.obs import MetricsRegistry


class TestDrillConformance:
    @pytest.mark.parametrize("seed,policy", [
        (0, "least-loaded"), (7, "hash"), (11, "least-loaded")])
    def test_drill_is_conformant(self, tmp_path, seed, policy):
        obs = MetricsRegistry()
        report = run_fleet_chaos(
            tmp_path / "chaos",
            FleetChaosConfig(operations=160, shards=3, seed=seed,
                             policy=policy),
            obs=obs)
        assert report.ok, "\n".join(report.failures)
        assert report.counts["crash"] == 1
        assert report.counts["recover"] == 1
        assert report.acked_before_crash > 0
        assert report.divergences == []
        assert report.audits and all(report.audits.values())
        assert len(report.audits) == 3
        assert obs.counter("fleet.shard_crashes").value == 1
        assert obs.counter("fleet.shard_recoveries").value == 1

    def test_operations_on_the_down_shard_surface_typed(self, tmp_path):
        # A long downtime over a busy stream reliably hits the victim's
        # tenants with removes/resizes while it is down.
        report = run_fleet_chaos(
            tmp_path / "chaos",
            FleetChaosConfig(operations=200, shards=2, seed=1,
                             crash_at=40, downtime=100))
        assert report.ok, "\n".join(report.failures)
        assert report.counts.get("refused_down", 0) >= 1
        assert report.typed_errors.get("ShardDownError", 0) >= 1

    def test_drill_reproduces_identically(self, tmp_path):
        config = FleetChaosConfig(operations=120, shards=3, seed=5)
        first = run_fleet_chaos(tmp_path / "a", config)
        second = run_fleet_chaos(tmp_path / "b", config)
        assert first.ok and second.ok
        assert second.counts == first.counts
        assert second.crash_shard == first.crash_shard
        assert second.acked_before_crash == first.acked_before_crash
        assert second.migrations == first.migrations

    def test_rebalancer_runs_inside_the_drill(self, tmp_path):
        report = run_fleet_chaos(
            tmp_path / "chaos",
            FleetChaosConfig(operations=150, shards=3, seed=2,
                             rebalance_every=25))
        assert report.ok, "\n".join(report.failures)
        assert report.counts.get("rebalance", 0) >= 3

    def test_store_survives_the_drill(self, tmp_path):
        """After the drill closes, the fleet root reopens warm with
        every shard audit-clean — the drill leaves a usable fleet."""
        report = run_fleet_chaos(
            tmp_path / "chaos",
            FleetChaosConfig(operations=100, shards=2, seed=3))
        assert report.ok
        with PlacementFleet(tmp_path / "chaos") as fleet:
            assert fleet.num_shards == 2
            assert fleet.all_audits_ok
            placed = report.counts.get("place", 0) \
                - report.counts.get("remove", 0)
            assert fleet.status()["tenants"] == placed

    def test_repro_line_names_the_config(self, tmp_path):
        report = run_fleet_chaos(
            tmp_path / "chaos",
            FleetChaosConfig(operations=80, shards=2, seed=9))
        assert "run_fleet_chaos" in report.repro_line
        assert "operations=80" in report.repro_line
        assert "seed=9" in report.repro_line

    def test_repro_line_carries_every_config_field(self):
        config = FleetChaosConfig(operations=80, shards=2, seed=9,
                                  crash_at=10, downtime=5,
                                  rebalance_every=0, max_load=0.4,
                                  max_servers_per_shard=7)
        line = FleetChaosReport(config=config,
                                store_dir="chaos").repro_line
        assert "crash_at=10" in line
        # The config literal evaluates back to an equal config.
        start = line.index("FleetChaosConfig(")
        literal = line[start:line.rindex(")))") + 1]
        assert eval(literal, {"FleetChaosConfig": FleetChaosConfig}) \
            == config


class TestDrillConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetChaosConfig(operations=2)
        with pytest.raises(ConfigurationError):
            FleetChaosConfig(shards=1)
        with pytest.raises(ConfigurationError):
            FleetChaosConfig(operations=100, crash_at=0)
        with pytest.raises(ConfigurationError):
            FleetChaosConfig(operations=100, crash_at=90, downtime=20)

    def test_defaults_resolve_deterministically(self):
        config = FleetChaosConfig(operations=160)
        assert config.resolved_crash_at == 80
        assert config.resolved_downtime == 20
