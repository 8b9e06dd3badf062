"""Integration tests for the command-line interface."""

import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.sim.figures import Theorem2Result, Theorem2Row


class TestArgumentParsing:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["bogus"])

    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            cli.main([])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_invalid_jobs_one_line_error_exit_1(self, jobs, capsys):
        # ReproError convention: one line on stderr, exit code 1,
        # never a traceback.
        assert cli.main(["sweep", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_invalid_tenants_one_line_error_exit_1(self, capsys):
        assert cli.main(["sweep", "--tenants", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_jobs_validated_before_any_command_runs(self, monkeypatch,
                                                    capsys):
        calls = []
        for name in list(cli._COMMANDS):
            monkeypatch.setitem(cli._COMMANDS, name,
                                lambda args, n=name: calls.append(n))
        assert cli.main(["all", "--jobs", "0"]) == 1
        assert calls == []


class TestDispatch:
    def test_theorem2_stub(self, monkeypatch, capsys):
        stub = Theorem2Result(rows_=[Theorem2Row(2, 21, 5 / 3, 4)])
        monkeypatch.setattr(cli, "theorem2", lambda: stub)
        assert cli.main(["theorem2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 2" in out
        assert "scale profile" in out

    def test_all_runs_every_command(self, monkeypatch, capsys):
        calls = []
        for name in list(cli._COMMANDS):
            monkeypatch.setitem(cli._COMMANDS, name,
                                lambda args, n=name: calls.append(n))
        assert cli.main(["all"]) == 0
        # Store-bound commands need --store and are not part of "all".
        assert sorted(calls) == \
            sorted(set(cli._COMMANDS) - cli._STORE_COMMANDS)

    def test_seed_forwarded(self, monkeypatch):
        seen = {}

        def fake_figure6(base_seed):
            seen["seed"] = base_seed

            class R:
                def __str__(self):
                    return "ok"
            return R()

        monkeypatch.setattr(cli, "figure6",
                            lambda base_seed: fake_figure6(base_seed))
        cli.main(["figure6", "--seed", "42"])
        assert seen["seed"] == 42


class TestCalibrateCommand:
    def test_calibrate_prints_model(self, monkeypatch, capsys):
        from repro.cluster.calibration import CalibrationResult
        from repro.workloads.loadmodel import BoundaryPoint, \
            LinearLoadModel

        stub = CalibrationResult(
            model=LinearLoadModel(delta=0.019, beta=0.012),
            boundary=[BoundaryPoint(1, 52), BoundaryPoint(4, 50)])
        monkeypatch.setattr(cli, "calibrate_load_model", lambda: stub)
        cli.main(["calibrate"])
        out = capsys.readouterr().out
        assert "C (max clients, one tenant) = 52" in out


class TestExtensionCommands:
    def test_churn_runs_quickly(self, monkeypatch, capsys):
        from repro.sim.churn import ChurnResult

        def fake_run_churn(factory, dist, config):
            algo = factory()
            return ChurnResult(algorithm=algo.name, config=config,
                               arrivals=10, departures=5)

        import repro.sim.churn as churn_mod
        monkeypatch.setattr(churn_mod, "run_churn", fake_run_churn)
        cli.main(["churn"])
        out = capsys.readouterr().out
        assert "Churn study" in out
        assert "cubefit" in out and "rfi" in out

    def test_metrics_renders_snapshot(self, capsys):
        """Acceptance: `repro metrics` renders a metrics snapshot for a
        churn run, plus the journal's replay counts."""
        assert cli.main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "Metrics snapshot" in out
        assert "placement.place" in out
        assert "placement.place.seconds" in out
        assert "churn.tenants" in out
        assert "journal:" in out and "place=" in out

    def test_metrics_csv_export(self, tmp_path, capsys):
        cli.main(["metrics", "--csv", str(tmp_path)])
        text = (tmp_path / "metrics.csv").read_text()
        assert text.splitlines()[0].startswith("metric,kind")

    def test_explain_without_trace(self, monkeypatch, capsys):
        # Shrink the default workload through the generate function.
        import repro.workloads.sequences as seq_mod
        original = seq_mod.generate_sequence

        def small(dist, n, seed=None, start_id=0):
            return original(dist, min(n, 120), seed=seed,
                            start_id=start_id)

        monkeypatch.setattr(seq_mod, "generate_sequence", small)
        cli.main(["explain"])
        out = capsys.readouterr().out
        assert "capacity split" in out
        assert "cubefit" in out and "rfi" in out

    def test_explain_with_trace(self, tmp_path, capsys):
        from repro.core.tenant import TenantSequence, make_tenants
        from repro.workloads.trace_io import save_trace

        path = tmp_path / "trace.json"
        save_trace(TenantSequence(tenants=make_tenants([0.4] * 30)),
                   path)
        cli.main(["explain", "--trace", str(path)])
        out = capsys.readouterr().out
        assert "loaded 30 tenants" in out

class TestErrorHandling:
    """ReproError from any subcommand: one line on stderr, exit 1,
    never a traceback."""

    def test_explain_missing_trace_file(self, tmp_path, capsys):
        code = cli.main(["explain", "--trace",
                         str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro explain: error:" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_explain_corrupt_trace_file(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("{ not json")
        code = cli.main(["explain", "--trace", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro explain: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_recover_missing_store(self, tmp_path, capsys):
        code = cli.main(["recover", "--store",
                         str(tmp_path / "no-such-store")])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro recover: error:" in captured.err
        assert "does not exist" in captured.err

    def test_recover_requires_store_flag(self, capsys):
        code = cli.main(["recover"])
        captured = capsys.readouterr()
        assert code == 1
        assert "requires --store" in captured.err

    def test_checkpoint_requires_store_flag(self, capsys):
        code = cli.main(["checkpoint"])
        captured = capsys.readouterr()
        assert code == 1
        assert "requires --store" in captured.err

    def test_recover_corrupt_wal(self, tmp_path, capsys):
        from repro.algorithms.naive import RobustBestFit
        from repro.core.tenant import Tenant
        from repro.store import DurableStore

        store = DurableStore(tmp_path / "st")
        algo = RobustBestFit(gamma=2)
        algo.attach_store(store)
        for i in range(6):
            algo.place(Tenant(i, 0.2))
        store.close()
        segment = sorted((tmp_path / "st" / "wal").iterdir())[0]
        lines = segment.read_text().splitlines(keepends=True)
        lines[1] = "@@@ definitely not json @@@\n"
        segment.write_text("".join(lines))
        code = cli.main(["recover", "--store", str(tmp_path / "st")])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro recover: error:" in captured.err
        assert "Traceback" not in captured.err


class TestChaosCommand:
    """`repro chaos` regression: conformant runs exit 0 with a repro
    line; bad arguments follow the one-line-stderr/exit-1 convention."""

    def test_small_run_is_conformant(self, capsys):
        code = cli.main(["chaos", "--faults",
                         "algo.place,store.wal.torn_tail",
                         "--ops", "40", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "CONFORMANT" in captured.out
        assert "reproduce: repro chaos --seed 3" in captured.out

    def test_bogus_fault_name_lists_catalogue(self, capsys):
        from repro.faults import CATALOG
        code = cli.main(["chaos", "--faults", "store.wal.tornn_tail"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("repro chaos: error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        # The error names the catalogue so a typo is self-correcting.
        for name in CATALOG:
            assert name in captured.err

    def test_invalid_gamma_one_line_error(self, capsys):
        code = cli.main(["chaos", "--gamma", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("repro chaos: error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_schedule_and_faults_mutually_exclusive(self, capsys):
        code = cli.main(["chaos", "--faults", "algo.place",
                         "--schedule", "3:algo.place=raise"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("repro chaos: error:")
        assert "mutually exclusive" in captured.err

    def test_malformed_schedule_one_line_error(self, capsys):
        code = cli.main(["chaos", "--schedule", "not-a-schedule"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("repro chaos: error:")
        assert "Traceback" not in captured.err

    def test_repro_line_round_trips_at_gamma_3(self, capsys):
        # A replay at the default gamma 2 would tear a different WAL
        # record, so the line must carry --gamma.
        assert cli.main(["chaos", "--gamma", "3", "--ops", "60",
                         "--seed", "7", "--faults",
                         "algo.place,store.wal.torn_tail"]) == 0
        first = capsys.readouterr().out
        report = next(l for l in first.splitlines()
                      if "reproduce: repro chaos" in l)
        line = report.split("reproduce: repro ", 1)[1].removesuffix(")")
        assert cli.main(shlex.split(line)) == 0
        second = capsys.readouterr().out

        def error_log(text):
            return [l for l in text.splitlines() if l.startswith("  op ")]

        assert error_log(first)
        assert error_log(first) == error_log(second)

    def test_failure_prints_repro_line_on_stderr(self, monkeypatch,
                                                 capsys):
        import repro.sim.chaos as chaos_mod

        real = chaos_mod.run_chaos_soak

        def sabotaged(factory, store_dir, config, obs=None):
            report = real(factory, store_dir, config, obs=obs)
            report.failures.append("synthetic conformance failure")
            return report

        monkeypatch.setattr(cli, "run_chaos_soak", sabotaged,
                            raising=False)
        monkeypatch.setattr(chaos_mod, "run_chaos_soak", sabotaged)
        code = cli.main(["chaos", "--faults", "algo.place",
                        "--ops", "30"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL: synthetic conformance failure" in captured.err
        err_tail = captured.err.strip().splitlines()[-1]
        assert "reproduce: repro chaos --seed 0" in err_tail


class TestStoreCommands:
    @staticmethod
    def _populated_store(tmp_path):
        from repro.algorithms.naive import RobustBestFit
        from repro.sim.soak import SoakConfig, run_soak
        from repro.store import DurableStore

        store = DurableStore(tmp_path / "st", segment_records=16)
        run_soak(lambda: RobustBestFit(gamma=2),
                 SoakConfig(operations=50, seed=4),
                 store=store, checkpoint_every=20)
        store.close()
        return tmp_path / "st"

    def test_recover_prints_summary(self, tmp_path, capsys):
        directory = self._populated_store(tmp_path)
        assert cli.main(["recover", "--store", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "recovered:" in out
        assert "audit:     OK" in out
        assert "bestfit" in out

    def test_checkpoint_writes_and_compacts(self, tmp_path, capsys):
        directory = self._populated_store(tmp_path)
        assert cli.main(["checkpoint", "--store", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint written:" in out
        assert (directory / "checkpoint.json").exists()
        # After a full-coverage checkpoint, recovery replays nothing.
        from repro.store import recover
        assert recover(directory).records_replayed == 0

    def test_soak_with_store(self, monkeypatch, tmp_path, capsys):
        import repro.sim.soak as soak_mod
        original = soak_mod.SoakConfig

        def small(operations=400, **kw):
            return original(operations=40, **kw)

        monkeypatch.setattr(soak_mod, "SoakConfig", small)
        assert cli.main(["soak", "--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "durable store" in out
        assert (tmp_path / "s" / "cubefit" / "wal").is_dir()
        assert (tmp_path / "s" / "rfi" / "wal").is_dir()

    def test_scaling_prints_savings_evolution(self, monkeypatch,
                                              capsys):
        import repro.sim.timing as timing_mod
        original = timing_mod.scaling_study

        def small(factories, dist, counts, seed=0):
            return original(factories, dist, [60, 200], seed=seed)

        monkeypatch.setattr(timing_mod, "scaling_study", small)
        cli.main(["scaling"])
        out = capsys.readouterr().out
        assert "Scaling study" in out
        assert "savings over RFI by scale" in out


class TestFleetCommands:
    """`repro fleet-soak` / `fleet-status` regression: the one-line
    stderr/exit-1 convention for bad arguments, and the end-to-end
    soak-then-status round trip on a real fleet root in both soak
    modes."""

    def test_fleet_soak_requires_store_flag(self, capsys):
        assert cli.main(["fleet-soak"]) == 1
        captured = capsys.readouterr()
        assert "requires --store" in captured.err
        assert "Traceback" not in captured.err

    def test_fleet_status_requires_store_flag(self, capsys):
        assert cli.main(["fleet-status"]) == 1
        assert "requires --store" in capsys.readouterr().err

    def test_fleet_status_missing_root_is_one_line(self, tmp_path,
                                                   capsys):
        code = cli.main(["fleet-status", "--store",
                         str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro fleet-status: error:" in captured.err
        assert "not a fleet root" in captured.err
        assert "Traceback" not in captured.err

    def test_fleet_soak_rejects_bad_geometry(self, tmp_path, capsys):
        code = cli.main(["fleet-soak", "--store", str(tmp_path / "f"),
                         "--shards", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro fleet-soak: error:" in captured.err

    def _soak_then_status(self, root, capsys, *mode):
        assert cli.main(["fleet-soak", "--store", str(root),
                         "--tenants", "240", "--shards", "2",
                         *mode]) == 0
        out = capsys.readouterr().out
        assert "SIGKILL-drilled" in out
        assert "p99" in out
        assert "crash drill: shard 0" in out
        assert cli.main(["fleet-status", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "geometry:   2 shard(s)" in out
        assert "audits all clean" in out

    def test_fleet_soak_then_status_round_trip(self, tmp_path, capsys):
        self._soak_then_status(tmp_path / "fleet", capsys, "--jobs", "2")

    def test_default_streaming_soak_then_status_round_trip(
            self, tmp_path, capsys):
        # --jobs 1 is the CLI default: the streaming soak, here with a
        # small window and no fsync.
        self._soak_then_status(tmp_path / "fleet", capsys, "--jobs", "1",
                               "--window", "64", "--fsync", "never")


class TestOptGapCommand:
    """`repro opt-gap` regression: gap tables on two distributions, the
    one-line-stderr/exit-1 convention for bad arguments, certified
    [LB, UB] intervals under --budget exhaustion, and a repro line that
    round-trips through the parser."""

    def test_reports_gaps_for_default_heuristics(self, capsys):
        assert cli.main(["opt-gap"]) == 0
        out = capsys.readouterr().out
        assert "optimality gap vs exact oracle" in out
        for name in ("cubefit", "rfi", "firstfit"):
            assert f"{name} gap" in out
        # Both workload families appear.
        assert "uniform(0,0.6]" in out
        assert "zipf(3)" in out
        assert "reproduce: repro opt-gap" in out

    def test_budget_exhaustion_prints_certified_interval(self, capsys):
        assert cli.main(["opt-gap", "--tenants", "14",
                         "--runs", "1", "--budget", "3"]) == 0
        out = capsys.readouterr().out
        assert "[" in out.split("optimum")[1]  # interval in the table
        assert "hit the node budget" in out
        assert "certified" in out

    def test_repro_line_round_trips(self, capsys):
        assert cli.main(["opt-gap", "--tenants", "7", "--runs", "2",
                         "--seed", "3"]) == 0
        first = capsys.readouterr().out
        line = next(l for l in first.splitlines()
                    if l.startswith("reproduce: "))
        argv = line.removeprefix("reproduce: repro ").split()
        assert cli.main(argv) == 0
        second = capsys.readouterr().out

        def table_of(text):
            lines = text.splitlines()
            start = next(i for i, l in enumerate(lines)
                         if "optimality gap" in l)
            end = next(i for i, l in enumerate(lines)
                       if l.startswith("reproduce: "))
            return lines[start:end + 1]

        assert table_of(first) == table_of(second)

    def test_bad_budget_one_line_error(self, capsys):
        assert cli.main(["opt-gap", "--budget", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro opt-gap: error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_bad_runs_one_line_error(self, capsys):
        assert cli.main(["opt-gap", "--runs", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro opt-gap: error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_oversized_instance_one_line_error(self, capsys):
        assert cli.main(["opt-gap", "--tenants", "65"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro opt-gap: error:")
        assert "exact optimum" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_bad_gamma_one_line_error(self, capsys):
        assert cli.main(["opt-gap", "--gamma", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro opt-gap: error:")

    def test_csv_export(self, tmp_path, capsys):
        assert cli.main(["opt-gap", "--runs", "1", "--csv",
                         str(tmp_path)]) == 0
        text = (tmp_path / "opt_gap.csv").read_text()
        assert text.splitlines()[0].startswith("distribution,seed")


class TestSweepCommand:
    def test_sweep_includes_sla_curve(self, capsys):
        assert cli.main(["sweep", "--tenants", "60"]) == 0
        out = capsys.readouterr().out
        assert "sla_target sensitivity" in out
        assert "cheapest robust point" in out

    def test_sweep_sla_csv_export(self, tmp_path, capsys):
        assert cli.main(["sweep", "--tenants", "60", "--csv",
                         str(tmp_path)]) == 0
        assert (tmp_path / "sweep_sla.csv").exists()


class TestKeyboardInterrupt:
    """Ctrl-C during any subcommand: one line on stderr, exit 130,
    never a traceback — the regression where a KeyboardInterrupt
    escaped main() as a stack trace."""

    def test_interrupt_exits_130_one_line(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "metrics", interrupted)
        assert cli.main(["metrics"]) == 130
        captured = capsys.readouterr()
        assert captured.err.strip() == "repro metrics: interrupted"
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_interrupt_stops_an_all_run(self, monkeypatch, capsys):
        calls = []

        def record(args, n):
            calls.append(n)
            if len(calls) == 2:
                raise KeyboardInterrupt

        for name in list(cli._COMMANDS):
            monkeypatch.setitem(cli._COMMANDS, name,
                                lambda args, n=name: record(args, n))
        assert cli.main(["all"]) == 130
        assert len(calls) == 2  # nothing ran after the interrupt

    def test_interrupted_soak_closes_its_store(self, monkeypatch,
                                               tmp_path, capsys):
        """The soak's durable store is released through its
        try/finally even when the run is interrupted mid-flight."""
        import repro.sim.soak as soak_mod

        def interrupted_soak(factory, config, store=None,
                             checkpoint_every=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(soak_mod, "run_soak", interrupted_soak)
        assert cli.main(["soak", "--store", str(tmp_path / "s")]) == 130
        # The WAL handle was closed: reopening the store (which locks
        # nothing but re-scans segments) works and sees no records.
        from repro.store import DurableStore
        with DurableStore(tmp_path / "s" / "cubefit") as store:
            assert store.wal.next_seq == 0
        captured = capsys.readouterr()
        assert "repro soak: interrupted" in captured.err


class TestBrokenPipe:
    """Downstream hanging up mid-output (`repro serve-send stats |
    head`) must not traceback: the conventional 128+SIGPIPE exit and a
    silent stderr, with stdout reopened on devnull so the interpreter's
    shutdown flush stays quiet too."""

    # main() rewires the process's stdout descriptor on the way out,
    # which would wreck pytest's own capture — so the handler runs in
    # a scratch interpreter and reports through stderr.
    _SCRIPT = """\
import sys

import repro.cli as cli


def hung_up(args):
    raise BrokenPipeError


cli._COMMANDS["metrics"] = hung_up
print(f"rc={cli.main(['metrics'])}", file=sys.stderr)
"""

    # The command itself succeeds, and the pipe dies just before the
    # trailing `[name: 0.0s]` timing line — `repro opt-gap | grep -q`
    # hits exactly this once grep has matched and hung up.  The
    # timing print runs inside the handler's try block, so this must
    # still be the quiet 141 exit, not a traceback.
    _TIMING_SCRIPT = """\
import sys

import repro.cli as cli

real = sys.stdout


class DeadPipe:
    def write(self, s):
        raise BrokenPipeError

    def flush(self):
        pass

    def fileno(self):
        return real.fileno()


def hang_up_after(args):
    sys.stdout = DeadPipe()


cli._COMMANDS["metrics"] = hang_up_after
print(f"rc={cli.main(['metrics'])}", file=sys.stderr)
"""

    @staticmethod
    def _run_scratch(script):
        src_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        parts = [src_root] + [p for p in
                              env.get("PYTHONPATH", "").split(
                                  os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, env=env, timeout=60)

    def test_broken_pipe_exits_141_quietly(self):
        proc = self._run_scratch(self._SCRIPT)
        # The interpreter exits cleanly (shutdown flush lands on
        # devnull, not the dead pipe) and stderr carries nothing but
        # our marker: no traceback, no error line.
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.decode().strip() == "rc=141"

    def test_broken_pipe_on_timing_line_exits_141_quietly(self):
        proc = self._run_scratch(self._TIMING_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.decode().strip() == "rc=141"


class TestServeCommands:
    def test_serve_requires_store_and_socket(self, capsys):
        assert cli.main(["serve"]) == 1
        assert "requires --store" in capsys.readouterr().err
        assert cli.main(["serve", "--store", "/tmp/x"]) == 1
        assert "requires --socket" in capsys.readouterr().err

    def test_serve_prints_the_gamma_it_runs_at(self, tmp_path):
        # A warm start adopts the gamma the store was created at, not
        # the --gamma argument; the startup line names the one in force.
        from repro.algorithms.naive import RobustBestFit
        from repro.core.tenant import Tenant
        from repro.store import open_durable

        store = tmp_path / "store"
        algorithm, _ = open_durable(store, lambda: RobustBestFit(gamma=3))
        algorithm.place(Tenant(0, 0.3))
        algorithm.store.close()
        env = dict(os.environ)
        parts = [str(Path(cli.__file__).resolve().parents[1])] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--socket", str(tmp_path / "serve.sock"), "--gamma", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            line = proc.stdout.readline()
            while line and not line.startswith("serving placements on"):
                line = proc.stdout.readline()  # e.g. the scale banner
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        assert "gamma 3," in line, (line, err)
        assert proc.returncode == 0, err

    def test_serve_send_requires_socket(self, capsys):
        assert cli.main(["serve-send"]) == 1
        assert "requires --socket" in capsys.readouterr().err

    def test_serve_send_unknown_verb(self, tmp_path, capsys):
        code = cli.main(["serve-send", "--socket",
                         str(tmp_path / "s.sock"), "--verb", "explode"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown verb" in captured.err

    def test_serve_send_place_requires_tenant_and_load(self, tmp_path,
                                                       capsys):
        base = ["serve-send", "--socket", str(tmp_path / "s.sock"),
                "--verb", "place"]
        assert cli.main(base) == 1
        assert "requires --tenant" in capsys.readouterr().err
        assert cli.main(base + ["--tenant", "1"]) == 1
        assert "requires --load" in capsys.readouterr().err

    def test_serve_send_against_live_server(self, tmp_path, capsys):
        from repro.serve import PlacementServer, ServeConfig

        server = PlacementServer(tmp_path / "store",
                                 tmp_path / "serve.sock",
                                 ServeConfig(crash_mode="abort"))
        server.start()
        try:
            sock = str(tmp_path / "serve.sock")
            assert cli.main(["serve-send", "--socket", sock,
                             "--verb", "place", "--tenant", "1",
                             "--load", "0.5"]) == 0
            out = capsys.readouterr().out
            assert '"servers"' in out
            assert cli.main(["serve-send", "--socket", sock,
                             "--verb", "stats"]) == 0
            assert '"tenants": 1' in capsys.readouterr().out
        finally:
            server.stop()

    def test_serve_send_connection_refused_is_one_line(self, tmp_path,
                                                       capsys):
        code = cli.main(["serve-send", "--socket",
                         str(tmp_path / "nobody.sock")])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro serve-send: error:" in captured.err
        assert "Traceback" not in captured.err
