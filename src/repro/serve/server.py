"""The long-running placement daemon.

:class:`PlacementServer` turns the durable controller into a service: a
unix-domain socket accepting JSONL request frames
(:mod:`repro.serve.protocol`), a bounded admission queue with explicit
backpressure, one mutation worker serialising every operation against a
:class:`~repro.store.DurableStore`-attached
:class:`~repro.algorithms.naive.RobustBestFit`, and a timer running WAL
checkpoint + compaction while traffic flows.

Lifecycle
---------
``start()`` opens the store through :func:`repro.store.open_durable` —
recovering and adopting prior committed state when the directory has
any (warm start), else starting a fresh placement — binds the socket, and launches the accept, worker, and
timer threads.  ``stop()`` is the *graceful* path (SIGTERM): stop
admitting, drain the queue, checkpoint, compact, close the WAL.  A
:class:`~repro.errors.SimulatedCrash` escaping any seam is the *crash*
path (kill -9): the process dies with nothing flushed beyond what the
WAL already committed, and the next ``start()`` on the same store
recovers via checkpoint + tail replay.

Threading model
---------------
One handler thread per connection parses frames and admits requests;
the single worker thread applies them in admission order, so placement
decisions are serialised without locking the placement itself.  ``ping``
is answered inline by the handler (readiness probes must not consume
queue slots); everything else — including ``stats`` and ``checkpoint``
— flows through the queue.

Failpoints
----------
``serve.accept`` (drop a fresh connection), ``serve.handler`` (typed
error or daemon crash per request), and ``serve.checkpoint_timer``
(skip a checkpoint round or crash un-checkpointed) are compiled into
the corresponding seams; the chaos conformance suite drills all three
against a live server, and :func:`repro.serve.drill.run_serve_drill`
runs a daemon with any of them armed through ``REPRO_FAULTS``.
"""

from __future__ import annotations

import math
import os
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import faults
from ..algorithms.naive import RobustBestFit
from ..core.tenant import Tenant
from ..errors import (BackpressureError, ConfigurationError, FaultInjected,
                      ProtocolError, ReproError, SimulatedCrash)
from ..obs import MetricsRegistry
from ..store import DurableStore, open_durable
from ..store.wal import FSYNC_ALWAYS
from .protocol import (MAX_FRAME_BYTES, encode_error, encode_result,
                       parse_request, read_frame)

PathLike = Union[str, Path]

#: Exit status the daemon dies with when a simulated crash fires in
#: ``crash_mode="exit"`` (the CLI default) — distinguishable from a
#: clean shutdown and from a real signal death.
CRASH_EXIT_CODE = 70


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one daemon run."""

    #: Replication factor of a *cold* start (a warm start adopts the
    #: recorded gamma, whatever this says).
    gamma: int = 2
    capacity: float = 1.0
    #: Bound of the admission queue; a full queue rejects with
    #: :class:`~repro.errors.BackpressureError`, never blocks.
    queue_size: int = 64
    #: Back-off hint (seconds) carried by backpressure rejections.
    retry_after: float = 0.05
    #: Seconds between timer-driven checkpoint+compaction runs;
    #: ``0`` disables the timer (checkpoints then happen only on
    #: explicit ``checkpoint`` requests and at graceful shutdown).
    checkpoint_interval: float = 0.0
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Kernel send timeout (seconds) on accepted sockets; a client
    #: that stops reading is declared dead after this long instead of
    #: blocking the worker forever.  ``0`` disables the timeout.
    send_timeout: float = 5.0
    fsync: str = FSYNC_ALWAYS
    segment_records: int = 512
    #: What a :class:`~repro.errors.SimulatedCrash` does: ``"exit"``
    #: kills the process with :data:`CRASH_EXIT_CODE` (daemon mode),
    #: ``"abort"`` tears the server down in place without flushing
    #: (in-process harnesses, which then recover from the directory).
    crash_mode: str = "exit"
    #: Shard this daemon serves when it is one member of a
    #: :mod:`repro.fleet` deployment; ``None`` for a standalone
    #: controller.  Purely descriptive — reported by the ``stats``
    #: verb so operators can tell shards apart — the daemon itself
    #: never routes.
    shard_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ConfigurationError(
                f"gamma must be >= 1, got {self.gamma}")
        if self.queue_size < 1:
            raise ConfigurationError(
                f"queue_size must be >= 1, got {self.queue_size}")
        if self.retry_after < 0:
            raise ConfigurationError(
                f"retry_after must be >= 0, got {self.retry_after}")
        if self.checkpoint_interval < 0:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 0, got "
                f"{self.checkpoint_interval}")
        if self.max_frame_bytes < 64:
            raise ConfigurationError(
                f"max_frame_bytes must be >= 64, got "
                f"{self.max_frame_bytes}")
        if self.send_timeout < 0:
            raise ConfigurationError(
                f"send_timeout must be >= 0, got {self.send_timeout}")
        if self.crash_mode not in ("exit", "abort"):
            raise ConfigurationError(
                f"crash_mode must be 'exit' or 'abort', got "
                f"{self.crash_mode!r}")
        if self.shard_id is not None and self.shard_id < 0:
            raise ConfigurationError(
                f"shard_id must be >= 0, got {self.shard_id}")


class _Connection:
    """One client session: the socket, its buffered reader, and a write
    lock shared by the handler (protocol errors, pings) and the worker
    (results), so response frames never interleave.

    Writes carry a kernel-level send timeout (``SO_SNDTIMEO`` — scoped
    to sends only, so the handler's blocking reads are unaffected): a
    client that stops reading fills its socket buffer, and without the
    timeout ``sendall`` would block the single worker thread forever,
    stalling placements for every other client.  A timed-out send marks
    the connection dead and drops the frame."""

    __slots__ = ("sock", "reader", "lock", "closed")

    def __init__(self, sock: socket.socket,
                 send_timeout: float = 0.0) -> None:
        self.sock = sock
        if send_timeout > 0:
            secs = int(send_timeout)
            usecs = int(round((send_timeout - secs) * 1e6))
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                                struct.pack("ll", secs, usecs))
            except OSError:  # pragma: no cover - platform without it
                pass
        self.reader = sock.makefile("rb")
        self.lock = threading.Lock()
        self.closed = False

    def send(self, frame: bytes) -> bool:
        with self.lock:
            if self.closed:
                return False
            try:
                self.sock.sendall(frame)
                return True
            except OSError:
                # Includes a timed-out send (EAGAIN under SO_SNDTIMEO):
                # the peer stopped reading, so the session is dead.
                self.closed = True
                return False

    def close(self) -> None:
        with self.lock:
            self.closed = True
        # Shut the socket down *before* touching the buffered reader:
        # a handler thread blocked in readline() holds the reader's
        # internal lock, and reader.close() would wait on it forever.
        # shutdown() wakes that read with EOF, releasing the lock.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.reader.close()
        except (OSError, ValueError):
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _Job:
    """One admitted request plus the connection awaiting its response
    (``None`` for internal jobs, e.g. the timer's checkpoints)."""

    __slots__ = ("request", "conn")

    def __init__(self, request, conn: Optional[_Connection]) -> None:
        self.request = request
        self.conn = conn


#: Worker-queue sentinels.
_STOP = object()


class PlacementServer:
    """The always-on placement service over one durable store."""

    def __init__(self, store_dir: PathLike, socket_path: PathLike,
                 config: Optional[ServeConfig] = None,
                 obs=None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.store_dir = Path(store_dir)
        self.socket_path = Path(socket_path)
        self._obs = obs if obs is not None else MetricsRegistry()
        self.store: Optional[DurableStore] = None
        self.algorithm: Optional[RobustBestFit] = None
        self._queue: "queue.Queue" = queue.Queue(
            maxsize=self.config.queue_size)
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[_Connection] = []
        self._conns_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._draining = False
        self._started = False
        self._stopped = False
        #: The SimulatedCrash that killed the server, if one did.
        self.crashed: Optional[SimulatedCrash] = None
        self._started_at = 0.0
        self._recovered_state = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open (or recover) the store, bind the socket, go live."""
        if self._started:
            raise ConfigurationError("server already started")
        cfg = self.config
        self.algorithm, self._recovered_state = open_durable(
            self.store_dir,
            lambda: RobustBestFit(gamma=cfg.gamma, capacity=cfg.capacity),
            fsync=cfg.fsync, segment_records=cfg.segment_records,
            obs=self._obs)
        self.store = self.algorithm.store

        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            # A stale socket file from a crashed daemon: nothing is
            # listening (connect would have to succeed), so unlink it.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(str(self.socket_path))
            except OSError:
                self.socket_path.unlink()
            else:
                probe.close()
                listener.close()
                self.store.close()
                raise ConfigurationError(
                    f"socket {self.socket_path} is already served")
            finally:
                probe.close()
        listener.bind(str(self.socket_path))
        listener.listen(16)
        self._listener = listener
        self._started = True
        self._started_at = time.monotonic()

        accept = threading.Thread(target=self._accept_loop,
                                  name="serve-accept", daemon=True)
        worker = threading.Thread(target=self._worker_loop,
                                  name="serve-worker", daemon=True)
        self._threads = [accept, worker]
        if cfg.checkpoint_interval > 0:
            self._threads.append(threading.Thread(
                target=self._timer_loop, name="serve-checkpoint",
                daemon=True))
        for thread in self._threads:
            thread.start()
        self._obs.emit("serve_start",
                       store=str(self.store_dir),
                       socket=str(self.socket_path),
                       warm=self._recovered_state is not None)

    def run(self) -> None:
        """Block until shutdown is requested, then finish accordingly.

        The CLI's main loop: a signal handler (or a client-side actor)
        calls :meth:`request_shutdown`; a crash seam fires
        :meth:`_fatal_crash`.  On a graceful request this drains and
        closes (:meth:`stop`); after an in-process crash it re-raises
        the :class:`~repro.errors.SimulatedCrash`.
        """
        self._shutdown.wait()
        if self.crashed is not None:
            raise self.crashed
        self.stop()

    def request_shutdown(self) -> None:
        """Ask for a graceful stop (signal-handler safe)."""
        self._draining = True
        self._shutdown.set()

    def stop(self) -> None:
        """Graceful shutdown: drain queue → checkpoint → close WAL."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._draining = True
        self._shutdown.set()
        self._close_listener()
        # Let the worker drain everything already admitted, then stop.
        # Never block on a full queue: if the worker is already dead
        # (a crash in `abort` mode) nothing drains it, so make room by
        # rejecting one pending job per attempt instead of hanging.
        while True:
            try:
                self._queue.put_nowait(_STOP)
                break
            except queue.Full:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    continue
                if job is not _STOP and job.conn is not None:
                    job.conn.send(encode_error(
                        job.request.id,
                        ProtocolError("server is shutting down")))
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        # Requests that raced past the drain flag after the sentinel
        # are answered, not dropped.
        self._reject_pending("server is shutting down")
        if self.crashed is None and self.store is not None \
                and self.algorithm is not None:
            self.store.checkpoint_and_compact(self.algorithm.placement)
            self.store.close()
        self._close_conns()
        if self.socket_path.exists():
            try:
                self.socket_path.unlink()
            except OSError:
                pass
        self._obs.emit("serve_stop", crashed=self.crashed is not None)

    def _fatal_crash(self, err: SimulatedCrash) -> None:
        """Kill-9 semantics: die with nothing flushed beyond the WAL's
        already-committed records — no drain, no checkpoint, no clean
        close.  ``crash_mode="exit"`` takes the whole process down."""
        if self.crashed is not None:
            return
        self.crashed = err
        self._obs.counter("serve.crashes").inc()
        if self.config.crash_mode == "exit":
            os._exit(CRASH_EXIT_CODE)
        self._draining = True
        self._close_listener()
        self._close_conns()
        self._shutdown.set()

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() wakes a thread blocked in accept(); close()
            # alone leaves it stuck in the syscall until the join
            # timeout expires.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    def _close_conns(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()

    def _reject_pending(self, message: str) -> None:
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if job is _STOP or job.conn is None:
                continue
            job.conn.send(encode_error(job.request.id,
                                       ProtocolError(message)))

    # ------------------------------------------------------------------
    # Accept / handler threads
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed (shutdown or crash)
            try:
                if faults.active():
                    faults.fire("serve.accept")
            except SimulatedCrash as err:
                sock.close()
                self._fatal_crash(err)
                return
            except FaultInjected:
                # The connection is dropped; the daemon keeps serving.
                self._obs.counter("serve.accept_dropped").inc()
                sock.close()
                continue
            conn = _Connection(sock, self.config.send_timeout)
            with self._conns_lock:
                self._conns.append(conn)
            self._obs.counter("serve.connections").inc()
            threading.Thread(target=self._handle, args=(conn,),
                             name="serve-handler", daemon=True).start()

    def _handle(self, conn: _Connection) -> None:
        cfg = self.config
        obs = self._obs
        try:
            while not conn.closed:
                try:
                    line = read_frame(conn.reader, cfg.max_frame_bytes)
                except ProtocolError as err:
                    obs.counter("serve.protocol_errors").inc()
                    conn.send(encode_error(None, err))
                    continue
                except (OSError, ValueError):
                    return  # connection torn down under the reader
                if line is None:
                    return  # clean EOF
                if not line.strip():
                    continue
                try:
                    request = parse_request(line)
                except ProtocolError as err:
                    obs.counter("serve.protocol_errors").inc()
                    conn.send(encode_error(
                        getattr(err, "request_id", None), err))
                    continue
                try:
                    if faults.active():
                        faults.fire("serve.handler")
                except SimulatedCrash as err:
                    self._fatal_crash(err)
                    return
                except FaultInjected as err:
                    conn.send(encode_error(request.id, err))
                    continue
                if request.verb == "ping":
                    conn.send(encode_result(request.id, {
                        "pong": True, "pid": os.getpid(),
                        "draining": self._draining}))
                    continue
                if self._draining:
                    conn.send(encode_error(request.id, ProtocolError(
                        "server is shutting down")))
                    continue
                try:
                    self._queue.put_nowait(_Job(request, conn))
                except queue.Full:
                    obs.counter("serve.rejected.backpressure").inc()
                    conn.send(encode_error(request.id, BackpressureError(
                        f"admission queue full "
                        f"({cfg.queue_size} requests)",
                        retry_after=cfg.retry_after)))
                    continue
                obs.counter("serve.admitted").inc()
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Worker / timer threads
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            request, conn = job.request, job.conn
            try:
                result = self._execute(request)
            except SimulatedCrash as err:
                self._fatal_crash(err)
                return
            except Exception as err:  # typed ReproError or internal
                if conn is not None:
                    conn.send(encode_error(request.id, err))
                kind = ("typed" if isinstance(err, ReproError)
                        else "internal")
                self._obs.counter(f"serve.errors.{kind}").inc()
            else:
                if conn is not None:
                    conn.send(encode_result(request.id, result))

    def _timer_loop(self) -> None:
        interval = self.config.checkpoint_interval
        while not self._shutdown.wait(interval):
            try:
                if faults.active():
                    faults.fire("serve.checkpoint_timer")
            except SimulatedCrash as err:
                self._fatal_crash(err)
                return
            except FaultInjected:
                # This round's checkpoint is skipped; traffic continues
                # and the next tick tries again.
                self._obs.counter("serve.checkpoint_skipped").inc()
                continue
            try:
                self._queue.put_nowait(
                    _Job(_TimerCheckpoint(), None))
            except queue.Full:
                # Under backpressure the maintenance job yields to
                # traffic; the next tick retries.
                self._obs.counter("serve.checkpoint_deferred").inc()

    # ------------------------------------------------------------------
    # Request execution (worker thread only)
    # ------------------------------------------------------------------
    def _execute(self, request) -> Dict[str, object]:
        verb = request.verb
        if verb == "checkpoint":
            return self._do_checkpoint()
        if verb == "stats":
            return self._do_stats()
        params = request.params
        if verb == "place":
            tenant_id = _as_int(params["tenant"], "tenant")
            load = _as_float(params["load"], "load")
            chosen = self.algorithm.place(Tenant(tenant_id, load))
            return {"servers": list(chosen)}
        if verb == "remove":
            tenant_id = _as_int(params["tenant"], "tenant")
            self.algorithm.remove(tenant_id)
            return {"removed": tenant_id}
        if verb == "update_load":
            tenant_id = _as_int(params["tenant"], "tenant")
            load = _as_float(params["load"], "load")
            chosen = self.algorithm.update_load(tenant_id, load)
            return {"servers": list(chosen)}
        raise ProtocolError(f"unhandled verb {verb!r}")  # unreachable

    def _do_checkpoint(self) -> Dict[str, object]:
        path, removed = self.store.checkpoint_and_compact(
            self.algorithm.placement)
        self._obs.counter("serve.checkpoints").inc()
        return {"checkpoint": str(path),
                "wal_applied": self.store.wal.next_seq,
                "segments_compacted": len(removed)}

    def _do_stats(self) -> Dict[str, object]:
        placement = self.algorithm.placement
        stats: Dict[str, object] = {
            "placement": {
                "servers": placement.num_servers,
                "tenants": placement.num_tenants,
                "utilization": placement.utilization(),
                "gamma": placement.gamma,
            },
            "wal": {"next_seq": self.store.wal.next_seq},
            "queue": {"depth": self._queue.qsize(),
                      "capacity": self.config.queue_size},
            "shard": {
                "id": self.config.shard_id,
                "store": str(self.store.directory),
                "wal_segments": [path.name for path
                                 in self.store.wal.segments()],
                "checkpoint": str(self.store.checkpoint_path),
                "checkpoint_exists":
                    self.store.checkpoint_path.exists(),
                "queue_depth": self._queue.qsize(),
            },
            "uptime_seconds": time.monotonic() - self._started_at,
            "draining": self._draining,
        }
        stats["metrics"] = self._obs.snapshot()
        return stats


class _TimerCheckpoint:
    """Internal request shape for the timer's checkpoint jobs."""

    __slots__ = ("id", "verb", "params")

    def __init__(self) -> None:
        self.id = None
        self.verb = "checkpoint"
        self.params: Dict[str, object] = {}


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"'{field}' must be an integer, got {value!r}")
    return value


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"'{field}' must be a number, got {value!r}")
    result = float(value)
    # The protocol layer already refuses bare NaN/Infinity literals;
    # this guard keeps the invariant local — a non-finite load would
    # slip past every `<= 0` domain check and corrupt the placement.
    if not math.isfinite(result):
        raise ProtocolError(
            f"'{field}' must be finite, got {value!r}")
    return result


__all__ = ["CRASH_EXIT_CODE", "PlacementServer", "ServeConfig"]
