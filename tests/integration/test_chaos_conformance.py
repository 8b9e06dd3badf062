"""Chaos conformance: every catalogued failpoint fires, and every
firing either surfaces typed or leaves an audit-clean system.

The soak-reachable points run under :func:`repro.sim.chaos.run_chaos_soak`
with its full conformance contract (typed-or-clean, crash differential,
accounting).  The par and cluster seams — which a placement soak never
reaches — get dedicated exercises here with the same typed-or-clean
assertion.  The final test closes the loop: the union of everything
fired in this module equals :data:`repro.faults.CATALOG`, so a
failpoint cannot be added to the catalogue without a conformance
exercise.
"""

import pytest

from repro import faults
from repro.algorithms.naive import RobustBestFit
from repro.cluster.experiment import ClusterConfig, ClusterExperiment
from repro.core.cubefit import CubeFit
from repro.errors import FaultInjected, SimulationError
from repro.obs import MetricsRegistry
from repro.sim.chaos import (SOAK_FAILPOINTS, ChaosConfig, FaultEvent,
                             default_schedule, format_schedule,
                             parse_schedule, run_chaos_soak)

#: Accumulates every failpoint name fired by this module's tests; the
#: catalogue-coverage test at the bottom audits it.  Session-scoped by
#: module-global on purpose: pytest runs this file's tests in order.
_FIRED = set()


def _record_fired(counts):
    _FIRED.update(name for name, n in counts.items() if n > 0)


class TestSoakConformance:
    @pytest.mark.parametrize("seed,gamma", [(7, 2), (11, 3)])
    def test_full_schedule_is_conformant(self, tmp_path, seed, gamma):
        report = run_chaos_soak(
            lambda: RobustBestFit(gamma=gamma), tmp_path / "chaos",
            ChaosConfig(operations=150, seed=seed),
            obs=MetricsRegistry())
        assert report.ok, "\n".join(report.failures)
        # Every soak-reachable failpoint fired exactly once.
        assert report.fired == {name: 1 for name in SOAK_FAILPOINTS}
        assert report.crashes >= 1
        assert report.recoveries == report.crashes
        assert report.typed_errors >= 1
        _record_fired(report.fired)

    def test_cubefit_controller_survives_chaos(self, tmp_path):
        """CUBEFIT cannot be re-adopted after a crash; the harness must
        resume under bestfit and stay conformant."""
        report = run_chaos_soak(
            lambda: CubeFit(gamma=2, num_classes=10),
            tmp_path / "chaos",
            ChaosConfig(operations=150, seed=3), obs=MetricsRegistry())
        assert report.ok, "\n".join(report.failures)
        assert report.crashes >= 1
        _record_fired(report.fired)

    def test_repro_line_rebuilds_the_algorithm_that_ran(
            self, tmp_path, monkeypatch):
        """``repro chaos`` always runs bestfit, so a cubefit run's line
        is a ``python -c`` call that builds cubefit by name and passes
        the same seed, ops and schedule."""
        import shlex
        import tempfile
        from types import SimpleNamespace

        import repro.sim.chaos as chaos_mod

        config = ChaosConfig(operations=40, seed=3,
                             schedule=parse_schedule("20:algo.place=raise"))
        report = run_chaos_soak(lambda: CubeFit(gamma=2), tmp_path / "run",
                                config, obs=MetricsRegistry())
        assert report.ok, "\n".join(report.failures)
        calls = []

        def record(factory, store_dir, config, obs=None):
            calls.append((factory(), config))
            return SimpleNamespace(ok=True)

        monkeypatch.setattr(chaos_mod, "run_chaos_soak", record)
        monkeypatch.setattr(tempfile, "mkdtemp", lambda: str(tmp_path))
        python, flag, code = shlex.split(report.repro_line)
        assert (python, flag) == ("python", "-c")
        with pytest.raises(SystemExit) as stop:
            exec(code, {})
        assert stop.value.code == 0
        [(algorithm, replayed)] = calls
        assert isinstance(algorithm, CubeFit) and algorithm.gamma == 2
        assert replayed == config
        _record_fired(report.fired)

    def test_schedule_reproduces_identically(self, tmp_path):
        config = ChaosConfig(operations=120, seed=5)
        first = run_chaos_soak(lambda: RobustBestFit(gamma=2),
                               tmp_path / "a", config)
        replay = ChaosConfig(
            operations=120, seed=5,
            schedule=parse_schedule(format_schedule(first.schedule)))
        second = run_chaos_soak(lambda: RobustBestFit(gamma=2),
                                tmp_path / "b", replay)
        assert first.ok and second.ok
        assert second.schedule == first.schedule

        def normalized(report, store):
            return [line.replace(str(tmp_path / store), "STORE")
                    for line in report.error_log]

        assert normalized(second, "b") == normalized(first, "a")
        assert second.result.counts == first.result.counts
        _record_fired(first.fired)

    def test_explicit_schedule_entry_beyond_ops_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            ChaosConfig(operations=10, schedule=(
                FaultEvent(at_op=10, spec="algo.place=raise"),))

    def test_default_schedule_is_deterministic(self):
        assert default_schedule(150, 9) == default_schedule(150, 9)
        assert default_schedule(150, 9) != default_schedule(150, 10)


class TestParSeams:
    def test_worker_death_mid_batch_is_typed(self):
        from repro.par import pmap
        with faults.injected("par.worker", action="raise",
                             after_hits=2):
            with pytest.raises(FaultInjected) as exc:
                pmap(lambda item, registry: item, [1, 2, 3], jobs=1)
        assert exc.value.failpoint == "par.worker"
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_absorb_drop_undercounts_only_obs(self):
        from repro.par import pmap
        obs = MetricsRegistry()

        def work(item, registry):
            if registry is not None:
                registry.counter("n").inc()
            return item

        with faults.injected("par.absorb.drop", action="raise"):
            assert pmap(work, [1, 2, 3], jobs=1, obs=obs) == [1, 2, 3]
        assert obs.counter("n").value == 2
        _record_fired(faults.FAILPOINTS.fired_counts())


class TestClusterSeams:
    def _experiment(self, clients=12):
        homes = {0: [0, 1, 2], 1: [0, 1, 2]}
        counts = {0: clients, 1: clients}
        return ClusterExperiment(
            homes, counts, ClusterConfig(warmup=5.0, measure=15.0,
                                         seed=0))

    def test_machine_failure_mid_experiment(self):
        """The chaos victim joins failed_servers and the run completes
        on the survivors — degraded, never silently wrong."""
        healthy = self._experiment().run()
        with faults.injected("cluster.machine.fail", action="raise"):
            chaotic = self._experiment().run()
        assert chaotic.failed_servers == [2]
        assert chaotic.completed > 0
        # The victim died before the measurement window: it did less
        # work than in the healthy run (latency itself is stochastic
        # under rebalanced round-robin, so compare utilization).
        assert chaotic.utilization[2] < healthy.utilization[2]
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_routing_to_dead_machine_is_typed(self):
        """A stale routing table submits to a failed machine: the
        machine rejects it with a typed SimulationError."""
        exp = self._experiment()
        with faults.injected("cluster.route.dead", action="raise"):
            with pytest.raises(SimulationError):
                exp.run(fail_servers=[2])
        _record_fired(faults.FAILPOINTS.fired_counts())


class TestServeSeams:
    """``serve.*`` — the placement daemon's failpoints, drilled against
    a live in-process server (crash mode ``abort`` so a simulated
    crash tears the server down, not the test process)."""

    def _server(self, tmp_path, name="store", **overrides):
        from repro.serve import PlacementServer, ServeConfig
        overrides.setdefault("crash_mode", "abort")
        server = PlacementServer(tmp_path / name,
                                 tmp_path / f"{name}.sock",
                                 ServeConfig(**overrides))
        server.start()
        return server

    def test_accept_fault_drops_connection_server_survives(
            self, tmp_path):
        from repro.errors import ProtocolError
        from repro.serve import ServeClient
        server = self._server(tmp_path)
        try:
            with faults.injected("serve.accept", action="raise"):
                victim = ServeClient(server.socket_path, timeout=5.0)
                with pytest.raises(ProtocolError):
                    victim.ping()
                victim.close()
            # The daemon kept serving: a fresh connection works.
            with ServeClient(server.socket_path) as client:
                assert client.ping()["pong"] is True
        finally:
            server.stop()
        assert faults.FAILPOINTS.fired("serve.accept") == 1
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_handler_fault_is_typed_error_response(self, tmp_path):
        from repro.serve import ServeClient
        server = self._server(tmp_path)
        try:
            with ServeClient(server.socket_path) as client:
                with faults.injected("serve.handler", action="raise"):
                    with pytest.raises(FaultInjected) as exc:
                        client.place(1, 0.2)
                assert exc.value.failpoint == "serve.handler"
                # Same connection, next request: fully served.
                assert client.place(1, 0.2)
        finally:
            server.stop()
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_handler_crash_kills_daemon_recovery_holds(self, tmp_path):
        from repro.errors import ProtocolError, ReproError
        from repro.serve import ServeClient
        from repro.store import recover
        server = self._server(tmp_path)
        acked = {}
        client = ServeClient(server.socket_path, timeout=5.0)
        try:
            for tenant in (1, 2, 3):
                acked[tenant] = client.place(tenant, 0.2)
            with faults.injected("serve.handler", action="crash"):
                with pytest.raises((ProtocolError, ReproError, OSError)):
                    client.place(4, 0.2)
        finally:
            client.close()
            server.stop()
        assert server.crashed is not None
        # Kill -9 semantics: every acked placement recovered exactly.
        state = recover(tmp_path / "store")
        assert state.audit.ok
        assert set(state.placement.tenant_ids) == set(acked)
        for tenant, servers in acked.items():
            by_index = state.placement.tenant_servers(tenant)
            assert [by_index[i] for i in sorted(by_index)] == servers
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_checkpoint_timer_fault_skips_round_only(self, tmp_path):
        import time
        from repro.serve import ServeClient
        from repro.store import recover
        server = self._server(tmp_path, checkpoint_interval=0.05)
        try:
            with faults.injected("serve.checkpoint_timer",
                                 action="raise"):
                with ServeClient(server.socket_path) as client:
                    client.place(1, 0.3)
                    deadline = time.monotonic() + 10.0
                    while (faults.FAILPOINTS.fired(
                            "serve.checkpoint_timer") == 0
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    # Daemon survived the skipped round and still
                    # serves and checkpoints on demand.
                    assert client.ping()["pong"] is True
                    assert client.checkpoint()["wal_applied"] > 0
        finally:
            server.stop()
        assert faults.FAILPOINTS.fired("serve.checkpoint_timer") == 1
        state = recover(tmp_path / "store")
        assert state.audit.ok and state.placement.num_tenants == 1
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_checkpoint_timer_crash_dies_uncheckpointed(self, tmp_path):
        import time
        from repro.serve import ServeClient
        from repro.store import recover
        # Skip every timer tick until the crash is armed, so no tick
        # between the acked places and the crash can checkpoint; arming
        # the crash below replaces this policy.
        faults.FAILPOINTS.activate("serve.checkpoint_timer",
                                   action="raise", max_fires=None)
        server = self._server(tmp_path, checkpoint_interval=0.05)
        client = ServeClient(server.socket_path, timeout=5.0)
        try:
            acked = {t: client.place(t, 0.2) for t in (1, 2)}
            with faults.injected("serve.checkpoint_timer",
                                 action="crash"):
                deadline = time.monotonic() + 10.0
                while (server.crashed is None
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
            assert server.crashed is not None
        finally:
            client.close()
            server.stop()
        # No checkpoint was ever taken — recovery is pure WAL replay,
        # and the acked placements are all there.
        state = recover(tmp_path / "store")
        assert state.checkpoint_seq == 0
        assert state.records_replayed > 0
        assert state.audit.ok
        assert set(state.placement.tenant_ids) == set(acked)
        _record_fired(faults.FAILPOINTS.fired_counts())


class TestFleetSeams:
    """``fleet.*`` — the sharded fleet's routing, spillover, and
    rebalancing seams, drilled against a live serial
    :class:`~repro.fleet.PlacementFleet`."""

    def _fleet(self, tmp_path, **overrides):
        from repro.fleet import PlacementFleet
        overrides.setdefault("shards", 2)
        return PlacementFleet(tmp_path / "fleet", **overrides)

    def test_route_fault_is_typed_and_fleet_unchanged(self, tmp_path):
        from repro.core.tenant import Tenant
        fleet = self._fleet(tmp_path)
        try:
            fleet.place(Tenant(1, 0.2))
            before = fleet.router.snapshot()
            with faults.injected("fleet.route", action="raise"):
                with pytest.raises(FaultInjected) as exc:
                    fleet.place(Tenant(2, 0.2))
            assert exc.value.failpoint == "fleet.route"
            # The refused admission mutated nothing: router estimates
            # are untouched and the next placement is fully served.
            assert fleet.router.snapshot() == before
            shard, servers = fleet.place(Tenant(2, 0.2))
            assert servers
            for report in fleet.audit_all().values():
                report.raise_if_violated()
        finally:
            fleet.close()
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_spill_fault_surfaces_typed_saturation_stays(self, tmp_path):
        """With the spill path fault-blocked, a saturated target shard
        cannot hand off — the refusal surfaces typed, and removing the
        fault lets the same tenant spill to the sibling."""
        from repro.core.tenant import Tenant
        fleet = self._fleet(tmp_path, policy="least-loaded",
                            max_servers_per_shard=2)
        try:
            fleet.place(Tenant(1, 0.4))  # fills shard 0's two servers
            fleet.place(Tenant(2, 0.4))  # fills shard 1's two servers
            with faults.injected("fleet.spill", action="raise"):
                with pytest.raises(FaultInjected) as exc:
                    fleet.place(Tenant(3, 0.9))
            assert exc.value.failpoint == "fleet.spill"
            for report in fleet.audit_all().values():
                report.raise_if_violated()
        finally:
            fleet.close()
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_rebalance_fault_abandons_move_whole(self, tmp_path):
        """The failpoint sits before either shard mutates: a faulted
        migration is abandoned entirely, never half-applied."""
        from repro.core.tenant import Tenant
        fleet = self._fleet(tmp_path, policy="hash")
        try:
            for tid in range(12):
                fleet.place(Tenant(tid, 0.3))
            tenants_before = {
                shard_id: set(controller.placement.tenant_ids)
                for shard_id, controller in enumerate(fleet.shards)}
            with faults.injected("fleet.rebalance", action="raise"):
                with pytest.raises(FaultInjected) as exc:
                    fleet.rebalance(max_moves=4, tolerance=0.0)
            assert exc.value.failpoint == "fleet.rebalance"
            tenants_after = {
                shard_id: set(controller.placement.tenant_ids)
                for shard_id, controller in enumerate(fleet.shards)}
            assert tenants_after == tenants_before
            for report in fleet.audit_all().values():
                report.raise_if_violated()
        finally:
            fleet.close()
        _record_fired(faults.FAILPOINTS.fired_counts())

    def test_fleet_chaos_drill_counts_faults(self, tmp_path):
        """The whole-shard drill stays conformant with the route seam
        firing mid-stream: the fault is typed, counted, and the run
        still finishes audit-clean."""
        from repro.fleet import FleetChaosConfig, run_fleet_chaos
        with faults.injected("fleet.route", action="raise",
                             after_hits=10):
            report = run_fleet_chaos(
                tmp_path / "chaos",
                FleetChaosConfig(operations=80, shards=2, seed=4),
                obs=MetricsRegistry())
        assert report.ok, "\n".join(report.failures)
        assert report.counts.get("fault", 0) >= 1
        assert report.typed_errors.get("FaultInjected", 0) >= 1
        assert report.fired.get("fleet.route", 0) >= 1
        _record_fired(faults.FAILPOINTS.fired_counts())


class TestCatalogueCoverage:
    def test_every_catalogued_failpoint_fired_in_this_module(self):
        """Adding a CATALOG entry without a conformance exercise is a
        test failure, not silent drift."""
        missing = set(faults.CATALOG) - _FIRED
        assert not missing, (
            f"catalogued failpoints never fired in the conformance "
            f"suite: {sorted(missing)}")
