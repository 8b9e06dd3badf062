"""Kill/restart drills against a real placement daemon.

:func:`run_serve_drill` spawns ``python -m repro serve`` as a child
process, drives placements through :class:`~repro.serve.client
.ServeClient`, terminates the daemon — gracefully (``SIGTERM``) or
violently (``SIGKILL`` mid-traffic) — then recovers the store and
checks the contract the service advertises:

* **Graceful** (``SIGTERM``): the daemon drains, checkpoints, closes;
  exit status 0; the recovered placement holds *exactly* the acked
  tenants, replica-for-replica.
* **Crash** (``SIGKILL``): every *acked* placement is durable — the
  WAL record was fsynced before the response frame went out — so the
  recovered state must contain every acked tenant on exactly the acked
  servers.  The one request in flight when the kill landed may or may
  not have committed; the drill tolerates that tenant and nothing
  else.

Either way the recovered state must pass the full robustness audit
(recovery refuses a state that does not).

With ``resume_tenants > 0`` the drill goes on to a **restart phase**:
an unarmed daemon on the same store adopts the recovered placement,
takes ``resume_tenants`` more placements and is stopped with
``SIGTERM``; a final recovery must then hold every tenant acked before
and after the restart on exactly its acked servers.  This is the
harness the chaos suite and the CI smoke jobs call.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError, ReproError
from ..store import diff_acked, recover
from .client import ServeClient, wait_until_ready

PathLike = Union[str, Path]

#: Modes a drill can end the daemon with.
MODES = ("sigterm", "sigkill")


@dataclass
class DrillReport:
    """Everything one drill observed, checked, and concluded."""

    mode: str
    store_dir: str
    tenants: int = 200
    #: Request the SIGKILL lands on (``sigkill`` drills).
    kill_at: Optional[int] = None
    #: Placements made against the restarted daemon (0: no restart).
    resume_tenants: int = 0
    #: ``REPRO_FAULTS`` spec armed inside the first daemon.
    fault_spec: Optional[str] = None
    checkpoint_interval: float = 0.2
    #: Tenant -> servers (replica-index order) for every acked place.
    acked: Dict[int, List[int]] = field(default_factory=dict)
    #: Requests refused or severed by the kill (never acked).
    unacked: int = 0
    exit_code: Optional[int] = None
    recovered_tenants: int = 0
    recovered_servers: int = 0
    records_replayed: int = 0
    checkpoint_seq: int = 0
    #: Tenant -> servers for every place the restarted daemon acked.
    resumed: Dict[int, List[int]] = field(default_factory=dict)
    final_tenants: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def repro_line(self) -> str:
        """One-liner replaying this drill against a scratch store."""
        return ("python -c \"import tempfile, pathlib; "
                "from repro.serve.drill import run_serve_drill; "
                "t = pathlib.Path(tempfile.mkdtemp()); "
                f"r = run_serve_drill(t / 'store', t / 'serve.sock', "
                f"mode={self.mode!r}, tenants={self.tenants}, "
                f"kill_at={self.kill_at}, "
                f"resume_tenants={self.resume_tenants}, "
                f"fault_spec={self.fault_spec!r}, "
                f"checkpoint_interval={self.checkpoint_interval!r}); "
                "print(r); raise SystemExit(0 if r.ok else 1)\"")

    def __str__(self) -> str:
        status = "OK" if self.ok else "FAILED"
        restart = ""
        if self.resume_tenants:
            restart = (f"; resumed {len(self.resumed)} tenants on "
                       f"restart, final recovery {self.final_tenants} "
                       f"tenants")
        return (f"serve drill [{self.mode}] {status}: "
                f"{len(self.acked)} acked (+{self.unacked} unacked), "
                f"daemon exit {self.exit_code}, recovered "
                f"{self.recovered_tenants} tenants on "
                f"{self.recovered_servers} servers "
                f"(checkpoint seq {self.checkpoint_seq} + "
                f"{self.records_replayed} replayed)"
                + restart
                + ("" if self.ok
                   else "; " + "; ".join(self.failures))
                + f"; reproduce: {self.repro_line}")


def _drill_load(index: int) -> float:
    """Deterministic per-tenant load — varied, rng-free, replayable."""
    return 0.04 + 0.02 * (index % 7)


def spawn_daemon(store_dir: PathLike, socket_path: PathLike,
                 checkpoint_interval: float = 0.0,
                 fault_spec: Optional[str] = None) -> "subprocess.Popen":
    """Start ``python -m repro serve`` on the given store and socket."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    parts = [src_root] + [p for p in
                          env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    if fault_spec is not None:
        env["REPRO_FAULTS"] = fault_spec
    else:
        env.pop("REPRO_FAULTS", None)
    command = [sys.executable, "-m", "repro", "serve",
               "--store", str(store_dir),
               "--socket", str(socket_path),
               "--checkpoint-interval", str(checkpoint_interval)]
    return subprocess.Popen(command, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def run_serve_drill(store_dir: PathLike, socket_path: PathLike,
                    mode: str = "sigterm", tenants: int = 200,
                    kill_at: Optional[int] = None,
                    checkpoint_interval: float = 0.2,
                    fault_spec: Optional[str] = None,
                    resume_tenants: int = 0) -> DrillReport:
    """Run one kill/restart drill; see the module docstring.

    ``fault_spec`` (the ``REPRO_FAULTS`` grammar) arms failpoints
    inside the first daemon — e.g. ``"serve.checkpoint_timer=raise"``
    drills the timer seam while traffic flows.
    """
    if mode not in MODES:
        raise ConfigurationError(
            f"drill mode must be one of {MODES}, got {mode!r}")
    if tenants < 1:
        raise ConfigurationError(f"tenants must be >= 1, got {tenants}")
    store_dir = Path(store_dir)
    if kill_at is None:
        kill_at = max(tenants // 2, 1)
    report = DrillReport(
        mode=mode, store_dir=str(store_dir), tenants=tenants,
        kill_at=kill_at, resume_tenants=resume_tenants,
        fault_spec=fault_spec, checkpoint_interval=checkpoint_interval)

    report.exit_code, in_flight = _daemon_phase(
        report.acked, store_dir, socket_path, range(1, tenants + 1),
        checkpoint_interval, fault_spec,
        kill_at=kill_at if mode == "sigkill" else None)
    report.unacked = tenants - len(report.acked)
    if mode == "sigterm" and report.exit_code != 0:
        report.failures.append(
            f"graceful daemon exited {report.exit_code}, expected 0")
    if mode == "sigkill" and report.exit_code != -signal.SIGKILL:
        report.failures.append(
            f"killed daemon exited {report.exit_code}, expected "
            f"{-signal.SIGKILL}")

    try:
        state = recover(store_dir)
    except ReproError as err:
        report.failures.append(f"recovery failed: {err}")
    else:
        report.recovered_tenants = state.placement.num_tenants
        report.recovered_servers = state.placement.num_servers
        report.records_replayed = state.records_replayed
        report.checkpoint_seq = state.checkpoint_seq
        report.failures.extend(
            diff_acked(state.placement, report.acked, in_flight))
    if resume_tenants > 0:
        _restart(report, store_dir, socket_path, in_flight)
    return report


def _restart(report: DrillReport, store_dir: Path,
             socket_path: PathLike, in_flight: Tuple[int, ...]) -> None:
    """The restart phase: an unarmed daemon on the drilled store,
    ``resume_tenants`` more placements, SIGTERM, final recovery."""
    first = report.tenants + 1
    try:
        exit_code, _ = _daemon_phase(
            report.resumed, store_dir, socket_path,
            range(first, first + report.resume_tenants),
            report.checkpoint_interval)
        if exit_code != 0:
            report.failures.append(
                f"restarted daemon exited {exit_code} on SIGTERM, "
                f"expected 0")
    except ReproError as err:
        report.failures.append(f"restart phase failed: {err}")
    try:
        state = recover(store_dir)
    except ReproError as err:
        report.failures.append(f"final recovery failed: {err}")
        return
    report.final_tenants = state.placement.num_tenants
    report.failures.extend(
        f"after restart: {divergence}" for divergence in diff_acked(
            state.placement, {**report.acked, **report.resumed},
            in_flight))


def _daemon_phase(acked: Dict[int, List[int]], store_dir: Path,
                  socket_path: PathLike, tenant_ids: Iterable[int],
                  checkpoint_interval: float,
                  fault_spec: Optional[str] = None,
                  kill_at: Optional[int] = None
                  ) -> Tuple[Optional[int], Tuple[int, ...]]:
    """Spawn a daemon, place ``tenant_ids`` through it and end it:
    SIGKILL at ``kill_at`` if given, else SIGTERM after the last.

    Returns the daemon's exit status and the request in flight when
    the kill landed (empty if none was).
    """
    daemon = spawn_daemon(store_dir, socket_path,
                          checkpoint_interval=checkpoint_interval,
                          fault_spec=fault_spec)
    try:
        wait_until_ready(socket_path, timeout=20.0)
        in_flight = _drive(acked, socket_path, daemon, tenant_ids,
                           kill_at)
        if kill_at is None:
            daemon.send_signal(signal.SIGTERM)
        return daemon.wait(timeout=30.0), in_flight
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10.0)


def _drive(acked: Dict[int, List[int]], socket_path: PathLike,
           daemon: "subprocess.Popen", tenant_ids: Iterable[int],
           kill_at: Optional[int]) -> Tuple[int, ...]:
    """Place ``tenant_ids`` into ``acked``, SIGKILLing at ``kill_at``.

    A ``sigkill`` drill severs the connection under us: the first
    error after the kill is the expected shape of a dead daemon, its
    request is returned as the one in flight, and the rest are never
    sent.  Any other error is a real failure and propagates.
    """
    client = ServeClient(socket_path)
    try:
        for index in tenant_ids:
            if index == kill_at:
                daemon.send_signal(signal.SIGKILL)
            try:
                acked[index] = client.place_retry(
                    index, _drill_load(index))
            except (ReproError, OSError):
                if kill_at is None or index < kill_at:
                    raise  # not a kill artefact: a real failure
                return (index,)
    finally:
        client.close()
    return ()


__all__ = ["MODES", "DrillReport", "run_serve_drill", "spawn_daemon"]
