"""Unit tests for the cluster experiment harness."""

import pytest

from repro.cluster.experiment import ClusterConfig, ClusterExperiment
from repro.errors import ConfigurationError, SimulationError


def small_config(**overrides):
    defaults = dict(warmup=5.0, measure=15.0, seed=0)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def two_server_scenario(clients=10):
    homes = {0: [0, 1], 1: [0, 1]}
    counts = {0: clients, 1: clients}
    return ClusterExperiment(homes, counts, small_config())


class TestConfig:
    def test_invalid_durations(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(warmup=-1.0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(measure=0.0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(time_scale=0.0)

    def test_time_scale(self):
        cfg = ClusterConfig(warmup=100.0, measure=200.0, time_scale=0.1)
        assert cfg.scaled_warmup == pytest.approx(10.0)
        assert cfg.scaled_measure == pytest.approx(20.0)


class TestRun:
    def test_healthy_run_produces_latencies(self):
        result = two_server_scenario().run()
        assert result.completed > 50
        assert result.p99 > 0
        assert result.global_p99 <= result.p99 + 1e-9
        assert result.dropped == 0
        assert result.meets_sla

    def test_utilization_reported_per_machine(self):
        result = two_server_scenario().run()
        assert set(result.utilization) == {0, 1}
        assert all(0.0 <= u <= 1.0 for u in result.utilization.values())

    def test_failure_increases_latency(self):
        exp = two_server_scenario(clients=25)
        healthy = exp.run()
        failed = exp.run(fail_servers=[1])
        assert failed.failed_servers == [1]
        assert failed.p99 > healthy.p99

    def test_all_servers_failed_drops_queries(self):
        exp = two_server_scenario()
        result = exp.run(fail_servers=[0, 1])
        assert result.dropped > 0
        assert not result.meets_sla

    def test_unknown_failed_server_rejected(self):
        exp = two_server_scenario()
        with pytest.raises(SimulationError):
            exp.run(fail_servers=[99])

    def test_runs_are_reproducible(self):
        a = two_server_scenario().run()
        b = two_server_scenario().run()
        assert a.p99 == pytest.approx(b.p99)
        assert a.completed == b.completed

    def test_seed_changes_results(self):
        homes = {0: [0, 1]}
        counts = {0: 10}
        a = ClusterExperiment(homes, counts, small_config(seed=1)).run()
        b = ClusterExperiment(homes, counts, small_config(seed=2)).run()
        assert a.p99 != b.p99

    def test_result_str(self):
        result = two_server_scenario().run()
        assert "p99" in str(result)


class TestValidation:
    def test_no_tenants_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterExperiment({}, {}, small_config())

    def test_negative_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterExperiment({0: [0]}, {0: -1}, small_config())

    def test_zero_clients_everywhere_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterExperiment({0: [0]}, {0: 0}, small_config()).run()


class TestLatencyCsvExport:
    def test_run_writes_latency_csv(self, tmp_path):
        exp = two_server_scenario()
        path = tmp_path / "latency.csv"
        result = exp.run(latency_csv=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == \
            "completed_at,tenant_id,server_id,query,latency"
        assert len(lines) == result.completed + 1
