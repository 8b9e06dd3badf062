"""Integration tests: observability wired through algorithms,
recovery/repacking, the cluster engine, and the sim harnesses."""

import pytest

from repro.core.cubefit import CubeFit
from repro.core.recovery import RecoveryPlanner
from repro.core.tenant import Tenant
from repro.obs import EventJournal, MetricsRegistry, replay
from repro.sim.churn import ChurnConfig, run_churn
from repro.sim.elasticity import ElasticityConfig, run_elasticity
from repro.sim.soak import SoakConfig, run_soak
from repro.sim.timing import scaling_study
from repro.workloads.distributions import UniformLoad


def cubefit():
    return CubeFit(gamma=2, num_classes=10)


def instrumented():
    return MetricsRegistry(journal=EventJournal())


class TestAlgorithmInstrumentation:
    def test_operations_journal_one_event_each(self):
        reg = instrumented()
        algo = cubefit()
        algo.attach_obs(reg)
        algo.place(Tenant(0, 0.4))
        algo.place(Tenant(1, 0.3))
        algo.update_load(0, 0.5)
        algo.remove(1)
        counts = replay(reg.journal).counts
        assert counts["place"] == 2
        assert counts["resize"] == 1  # NOT an extra remove+place pair
        assert counts["remove"] == 1
        assert reg.counter("placement.place").value == 2
        assert reg.counter("placement.remove").value == 1
        assert reg.counter("placement.resize").value == 1
        assert reg.histogram("placement.place.seconds").count == 2

    def test_open_server_events_match_fleet(self):
        reg = instrumented()
        algo = cubefit()
        algo.attach_obs(reg)
        for tid in range(6):
            algo.place(Tenant(tid, 0.6))
        opened = reg.journal.events("open_server")
        assert len(opened) == algo.placement.num_servers
        assert reg.counter("placement.servers_opened").value == \
            algo.placement.num_servers
        assert sorted(e.data["server"] for e in opened) == \
            list(range(algo.placement.num_servers))

    def test_uninstrumented_by_default(self):
        algo = cubefit()
        assert algo.obs is None
        algo.place(Tenant(0, 0.4))  # no registry, no cost, no error


class TestRecoveryAndRepackEvents:
    def test_recovery_moves_journaled(self):
        reg = instrumented()
        algo = cubefit()
        for tid in range(6):
            algo.place(Tenant(tid, 0.6))
        victim = next(s.server_id for s in algo.placement if len(s) > 0)
        plan = RecoveryPlanner(algo.placement, failures=1,
                               obs=reg).recover([victim])
        moves = reg.journal.events("recovery_move")
        assert len(moves) == plan.replicas_relocated > 0
        assert reg.counter("recovery.moves").value == len(moves)
        assert reg.histogram("span.recovery.seconds").count == 1

    def test_soak_repack_events_journaled(self):
        reg = instrumented()
        result = run_soak(
            cubefit, SoakConfig(operations=300, seed=0), obs=reg)
        if result.counts.get("repack", 0):
            assert len(reg.journal.events("repack")) == \
                result.counts["repack"]


class TestSoakJournalReplay:
    """Acceptance criterion: an instrumented soak run's journal replays
    to exactly the operation counts reported in SoakResult.counts."""

    @pytest.fixture(scope="class")
    def run(self):
        reg = instrumented()
        result = run_soak(cubefit, SoakConfig(operations=300, seed=0),
                          obs=reg)
        return result, reg

    def test_replay_counts_equal_result_counts(self, run):
        result, reg = run
        summary = replay(reg.journal)
        for op, count in result.counts.items():
            assert summary.count(op) == count, op

    def test_replay_survives_jsonl_round_trip(self, run, tmp_path):
        from repro.obs import read_journal
        result, reg = run
        path = tmp_path / "soak.jsonl"
        reg.journal.write(path)
        summary = replay(read_journal(path))
        assert {op: summary.count(op) for op in result.counts} == \
            result.counts

    def test_metrics_snapshot_in_result(self, run):
        result, reg = run
        assert result.metrics is not None
        assert result.metrics["placement.place"]["value"] == \
            result.counts["place"]


class TestDifferentialDisabledIdentical:
    """Results must be identical with and without instrumentation."""

    def test_soak_scalars_identical(self):
        cfg = SoakConfig(operations=200, seed=3)
        plain = run_soak(cubefit, cfg)
        instr = run_soak(cubefit, cfg, obs=instrumented())
        assert plain.counts == instr.counts
        assert plain.final_servers == instr.final_servers
        assert plain.final_tenants == instr.final_tenants
        assert plain.recovered_replicas == instr.recovered_replicas
        assert plain.repacked_servers == instr.repacked_servers
        assert plain.violations == instr.violations
        assert plain.metrics is None and instr.metrics is not None

    def test_churn_timeline_identical(self):
        cfg = ChurnConfig(arrival_rate=5.0, mean_lifetime=10.0,
                          horizon=40.0, sample_every=10.0, seed=1)
        plain = run_churn(cubefit, UniformLoad(0.3), cfg)
        instr = run_churn(cubefit, UniformLoad(0.3), cfg,
                          obs=MetricsRegistry())
        assert plain.samples == instr.samples
        assert plain.arrivals == instr.arrivals
        assert plain.departures == instr.departures


class TestHarnessMetricsFields:
    def test_elasticity_metrics(self):
        reg = MetricsRegistry()
        result = run_elasticity(
            cubefit, UniformLoad(0.4),
            ElasticityConfig(n_tenants=40, n_updates=60, seed=0),
            obs=reg)
        assert result.metrics is not None
        assert result.metrics["placement.resize"]["value"] == \
            result.updates
        if result.migrations:
            assert result.metrics["elasticity.migrations"]["value"] == \
                result.migrations

    def test_churn_metrics_gauges(self):
        reg = MetricsRegistry()
        result = run_churn(
            cubefit, UniformLoad(0.3),
            ChurnConfig(arrival_rate=4.0, mean_lifetime=8.0,
                        horizon=30.0, sample_every=10.0, seed=0),
            obs=reg)
        assert result.metrics is not None
        last = result.samples[-1]
        assert result.metrics["churn.tenants"]["value"] == last.tenants
        assert result.metrics["churn.servers"]["value"] == \
            last.servers_nonempty

    def test_scaling_study_metrics(self):
        reg = MetricsRegistry()
        study = scaling_study({"cubefit": cubefit}, UniformLoad(0.3),
                              tenant_counts=[50, 100], seed=0, obs=reg)
        assert study.metrics is not None
        assert study.metrics["placement.place"]["value"] == 150

    def test_cluster_experiment_metrics(self):
        from repro.cluster.experiment import (ClusterConfig,
                                              ClusterExperiment)
        reg = MetricsRegistry()
        experiment = ClusterExperiment(
            {0: [0, 1], 1: [0, 1]}, {0: 8, 1: 8},
            ClusterConfig(warmup=5.0, measure=15.0, seed=0))
        result = experiment.run(obs=reg)
        snap = reg.snapshot()
        assert snap["sim.events"]["value"] == result.events
        assert snap["cluster.queries"]["value"] >= result.completed > 0
        assert snap["cluster.query_seconds"]["count"] == \
            snap["cluster.queries"]["value"]
        assert snap["cluster.meets_sla"]["value"] in (0.0, 1.0)
