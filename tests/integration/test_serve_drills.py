"""Kill/restart drills against a real ``repro serve`` daemon process.

These tests spawn the daemon with ``python -m repro serve``, drive
placements through the client, end it with a real signal, and recover
the store — the full durability contract of the service, process
boundaries included.  The SIGKILL variant is the headline acceptance
drill: a -9 mid-traffic must recover to an audit-clean placement whose
committed prefix matches exactly what the daemon acked.
"""

import shlex
import signal
import tempfile
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.serve.client import ServeClient, wait_until_ready
from repro.serve.drill import DrillReport, run_serve_drill, spawn_daemon
from repro.store import recover


class TestServeDrills:
    def test_sigterm_drill_recovers_exact_state(self, tmp_path):
        report = run_serve_drill(tmp_path / "store",
                                 tmp_path / "serve.sock",
                                 mode="sigterm", tenants=60,
                                 checkpoint_interval=0.1)
        assert report.ok, str(report)
        assert report.exit_code == 0
        assert len(report.acked) == 60
        assert report.recovered_tenants == 60
        # Graceful stop checkpointed on the way out: the recovery
        # replays no WAL tail on top of the final checkpoint.
        assert report.records_replayed == 0

    def test_sigkill_drill_recovers_acked_prefix(self, tmp_path):
        report = run_serve_drill(tmp_path / "store",
                                 tmp_path / "serve.sock",
                                 mode="sigkill", tenants=60,
                                 kill_at=30, checkpoint_interval=0.1)
        assert report.ok, str(report)
        assert report.exit_code == -signal.SIGKILL
        assert 1 <= len(report.acked) < 60
        assert report.unacked > 0

    def test_serve_chaos_cycle_kill_restart_resume(self, tmp_path):
        report = run_serve_drill(tmp_path / "store",
                                 tmp_path / "serve.sock",
                                 mode="sigkill", tenants=40,
                                 resume_tenants=8,
                                 checkpoint_interval=0.1)
        assert report.ok, str(report)
        assert len(report.resumed) == 8
        assert report.final_tenants == report.recovered_tenants + 8

    def test_serve_chaos_with_armed_daemon_failpoint(self, tmp_path):
        """The daemon runs with ``serve.checkpoint_timer=raise`` armed
        through the environment: the timer round is skipped, traffic
        and recovery are unaffected."""
        report = run_serve_drill(
            tmp_path / "store", tmp_path / "serve.sock",
            mode="sigterm", tenants=30, resume_tenants=5,
            fault_spec="serve.checkpoint_timer=raise",
            checkpoint_interval=0.1)
        assert report.ok, str(report)

    def test_serve_chaos_repro_line_passes_every_argument(
            self, tmp_path, monkeypatch):
        """Executing the repro line calls run_serve_drill with the
        reported run's arguments, the armed failpoint included."""
        import repro.serve.drill as drill_mod

        arguments = dict(mode="sigkill", tenants=120, kill_at=60,
                         resume_tenants=0,
                         fault_spec="serve.checkpoint_timer=raise",
                         checkpoint_interval=0.2)
        line = DrillReport(store_dir="unused", **arguments).repro_line
        calls = []

        def record(store_dir, socket_path, **kwargs):
            calls.append(kwargs)
            return SimpleNamespace(ok=True)

        monkeypatch.setattr(drill_mod, "run_serve_drill", record)
        monkeypatch.setattr(tempfile, "mkdtemp", lambda: str(tmp_path))
        python, flag, code = shlex.split(line)
        assert (python, flag) == ("python", "-c")
        with pytest.raises(SystemExit) as stop:
            exec(code, {})
        assert stop.value.code == 0
        assert calls == [arguments]

    def test_drill_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigurationError, match="mode"):
            run_serve_drill(tmp_path / "store", tmp_path / "s.sock",
                            mode="sigquit")


class TestDaemonProcess:
    def test_daemon_answers_client_and_stops_clean(self, tmp_path):
        daemon = spawn_daemon(tmp_path / "store",
                              tmp_path / "serve.sock",
                              checkpoint_interval=0.0)
        try:
            wait_until_ready(tmp_path / "serve.sock", timeout=20.0)
            with ServeClient(tmp_path / "serve.sock") as client:
                assert client.place(1, 0.5) == [0, 1]
                stats = client.stats()
                assert stats["placement"]["tenants"] == 1
                assert stats["metrics"]["serve.admitted"]["value"] >= 2
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30.0) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)
        state = recover(tmp_path / "store")
        assert state.placement.num_tenants == 1
        assert state.audit.ok
