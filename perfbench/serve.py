"""serve: the churn op stream through a real ``python -m repro serve``.

Each pass prefills a store with the steady Table I population, starts
the daemon on it (warm start: recover, audit, adopt), and drives it
from this single thread over one connection:

1. ``ping`` round trips (transport only);
2. segments that alternate a pipelined closed loop, with fewer
   requests in flight than the daemon's ``--queue-size``, with an open
   loop at the lowest fixed rate.  Every ``checkpoint_every``-th closed
   loop ends with a ``checkpoint`` request (instead of the daemon's
   wall-clock timer), so checkpoints come at fixed op counts;
3. an open loop at each higher fixed rate.  Open-loop requests are
   timed from when they were due to be sent;
4. ``stats``, a reading of the daemon's own peak RSS (``VmHWM``), a
   graceful SIGTERM stop, and a cold recovery of the store that must
   hold exactly what the acknowledged responses said.

Many short alternating segments spread both gated figures over the
whole pass.  Each is a median over the pass: the throughput over its
rounds of ``checkpoint_every`` pipelined segments (a round ends with
one checkpoint), the latency over the segments' median ``place``
round trips at the lowest rate.  A slow spell of a shared machine
that covers fewer than half of them moves neither.

With at least two CPUs the daemon and this client are pinned apart.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.serve.protocol import encode_request, parse_response
from repro.store import FSYNC_ALWAYS, DurableStore

from .churn import cold_recover
from .harness import (FsyncShim, fingerprint, median, percentile,
                      perf, replica_map, replica_problems, tail, throughput,
                      timing_line)
from .population import GAMMA, op_stream, population, prefill

SIZES = {
    "full": {"population": 20000, "segments": 22, "segment_ops": 1000,
             "checkpoint_every": 2, "rates": (150, 300, 600),
             "low_seconds": 0.5, "high_seconds": 1.0, "pings": 200,
             "window": 16},
    "toy": {"population": 300, "segments": 4, "segment_ops": 30,
            "checkpoint_every": 2, "rates": (100, 200),
            "low_seconds": 0.1, "high_seconds": 0.3, "pings": 20,
            "window": 8},
}
QUEUE_SIZE = 64
#: Seconds without any response before the daemon counts as hung.
STALL = 30.0
READY_TIMEOUT = 60.0


class Wire:
    """One connection, read through a selector from a single thread."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.sock, selectors.EVENT_READ)
        self.buffer = b""
        self.next_id = 0

    def send(self, verb: str, **params) -> int:
        self.next_id += 1
        self.sock.sendall(encode_request(self.next_id, verb, **params))
        return self.next_id

    def poll(self, timeout: float):
        """Responses that arrived within ``timeout``: (id, body, time)."""
        if not self.selector.select(max(timeout, 0.0)):
            return []
        data = self.sock.recv(1 << 16)
        now = perf()
        if not data:
            raise ConnectionError("daemon closed the connection")
        self.buffer += data
        *lines, self.buffer = self.buffer.split(b"\n")
        return [parse_response(line) + (now,) for line in lines if line]

    def call(self, verb: str, **params):
        rid = self.send(verb, **params)
        deadline = perf() + STALL
        while perf() < deadline:
            for got, body, _ in self.poll(deadline - perf()):
                if got == rid:
                    return body
        raise TimeoutError(f"no answer to {verb} within {STALL}s")

    def close(self) -> None:
        self.selector.close()
        self.sock.close()


class Ledger:
    """What the acknowledged responses say the store must hold."""

    def __init__(self, ctx, expected) -> None:
        self.ctx = ctx
        self.expected = expected
        self.refused = 0

    def settle(self, op, body) -> None:
        verb, tenant, _load = op
        if not body.get("ok"):
            self.refused += 1
            self.ctx.op_failed(f"{verb} {tenant}: {body.get('error')}")
        elif verb == "remove":
            self.expected.pop(tenant, None)
        else:
            self.expected[tenant] = list(body["result"]["servers"])


def ack_problems(recovered, acked) -> list:
    """Tenants whose recovered replicas differ from the last ack."""
    wrong = sorted(t for t in set(recovered) | set(acked)
                   if recovered.get(t) != acked.get(t))
    return ([f"{len(wrong)} tenant(s) differ, e.g. {wrong[:3]}"]
            if wrong else [])


def send_op(wire: Wire, op) -> int:
    verb, tenant, load = op
    if verb == "remove":
        return wire.send(verb, tenant=tenant)
    return wire.send(verb, tenant=tenant, load=load)


def closed_loop(ctx, wire, ledger, ops, window, checkpoint: bool):
    """Pipelined phase, ended by a ``checkpoint`` request when
    ``checkpoint`` is true; returns its rate in ops per second.

    The daemon executes one connection's requests in order, so the
    last answer closes the segment, checkpoint included.
    """
    tr = ctx.tracer
    pending = {}
    sent = 0
    began = perf()
    while sent < len(ops) or pending:
        while sent < len(ops) and len(pending) < window:
            pending[send_op(wire, ops[sent])] = (ops[sent], perf())
            sent += 1
            if checkpoint and sent == len(ops):
                pending[wire.send("checkpoint")] = (None, perf())
        answers = wire.poll(STALL)
        if not answers:
            raise TimeoutError(f"daemon silent for {STALL}s")
        for rid, body, now in answers:
            op, sent_at = pending.pop(rid)
            tr.record("serve.request", sent_at, now, rid=rid)
            if op is None:
                ctx.check("checkpoint verb", [] if body.get("ok")
                          else [str(body.get("error"))])
            else:
                ledger.settle(op, body)
    return len(ops) / (now - began)


def open_loop(ctx, wire, ledger, ops, rate):
    """Fixed-rate phase; returns (latencies from due time by verb,
    how late each send was).

    The generator polls without sleeping, so neither its own wake-ups
    nor the millisecond granularity of selector timeouts delay a send
    or a receive stamp.
    """
    tr = ctx.tracer
    due0 = perf() + 0.005
    pending = {}
    latencies = {"place": [], "remove": [], "update_load": []}
    late = []
    sent = 0
    heard = perf()
    while sent < len(ops) or pending:
        now = perf()
        while sent < len(ops) and due0 + sent / rate <= now:
            due = due0 + sent / rate
            pending[send_op(wire, ops[sent])] = (ops[sent], due)
            late.append(perf() - due)
            sent += 1
        answers = wire.poll(0.0)
        if answers:
            heard = answers[-1][2]
        elif now - heard > STALL:
            raise TimeoutError(f"daemon silent for {STALL}s")
        for rid, body, now in answers:
            op, due = pending.pop(rid)
            tr.record("serve.request", due, now, rid=rid)
            latencies[op[0]].append(now - due)
            ledger.settle(op, body)
    return latencies, late


def start_daemon(root: Path, store: Path, sock: Path, log, pin):
    command = [sys.executable, "-c", FsyncShim.DAEMON_BOOT, "serve",
               "--store", str(store.relative_to(root)),
               "--socket", str(sock.relative_to(root)),
               "--queue-size", str(QUEUE_SIZE),
               "--checkpoint-interval", "0", "--gamma", str(GAMMA)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.Popen(
        command, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
        preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None)


def connect_when_ready(proc, sock: Path, root: Path, log: Path) -> Wire:
    path = str(sock.relative_to(root))
    deadline = perf() + READY_TIMEOUT
    while perf() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"serve daemon exited with {proc.returncode}"
                               f":\n{log.read_text(errors='replace')}")
        try:
            wire = Wire(path)
        except OSError:
            wire = None
        if wire is not None:
            if wire.call("ping").get("ok"):
                return wire
            wire.close()
        time.sleep(0.02)
    raise TimeoutError(f"serve daemon not ready in {READY_TIMEOUT}s")


def stop_daemon(proc) -> None:
    """Graceful SIGTERM; kill only if it does not exit in time."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def daemon_peak_mb(pid: int) -> float:
    """The daemon's own peak RSS (``VmHWM``) while it runs.

    ``getrusage(RUSAGE_CHILDREN)`` would not do: a forked child's
    maximum also counts the parent's memory at the fork.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def exec_seconds(stats) -> float:
    """Mean in-daemon ``place`` execution, from the ``stats`` verb."""
    metrics = stats.get("result", {}).get("metrics", {})
    hist = metrics.get("placement.place.seconds", {})
    return hist.get("total", 0.0) / max(hist.get("count", 0), 1)


def one_pass(ctx, index: int, size: dict, pin) -> dict:
    ctx.start_pass(index)
    tr = ctx.tracer
    root = Path.cwd()
    base = ctx.workdir / f"serve-{index}"
    store_dir, sock = base / "store", base / "d.sock"
    base.mkdir(parents=True)
    low, *high = size["rates"]
    low_count = int(low * size["low_seconds"])
    high_counts = [int(rate * size["high_seconds"]) for rate in high]
    total_ops = (size["segments"] * (size["segment_ops"] + low_count)
                 + sum(high_counts))

    start = perf()
    tenants = tr.call("workloads.population", population, ctx.seed,
                      size["population"])
    ops = tr.call("workloads.op_stream", op_stream, ctx.seed,
                  size["population"], total_ops)
    gen_s = perf() - start
    algorithm = tr.call("algorithms.prefill", prefill, tenants)
    ctx.attempted += len(tenants)
    expected = replica_map(algorithm.placement)
    with tr.span("store.prefill"):
        store = DurableStore(store_dir, fsync=FSYNC_ALWAYS)
        algorithm.attach_store(store)
        store.checkpoint(algorithm.placement)
        store.close()
    log = base / "daemon.log"
    with open(log, "wb") as out, tr.span("serve.start"):
        proc = start_daemon(root, store_dir, sock, out, pin)
    wire = None
    try:
        wire = tr.call("serve.start", connect_when_ready, proc, sock, root,
                       log)
        setup_s = perf() - start
        ledger = Ledger(ctx, expected)
        pings = []
        for _ in range(size["pings"]):
            began = perf()
            tr.call("serve.ping", wire.call, "ping")
            pings.append(perf() - began)
        per_rate = {low: {"place": [], "remove": [], "update_load": []}}
        blocks, low_medians, late = [], [], []
        head = 0
        for number in range(size["segments"]):
            count = size["segment_ops"]
            with tr.span("serve.pipeline", rid=number):
                blocks.append(closed_loop(
                    ctx, wire, ledger, ops[head:head + count],
                    size["window"],
                    (number + 1) % size["checkpoint_every"] == 0))
            head += count
            with tr.span("serve.open_loop", rid=low):
                latencies, lateness = open_loop(
                    ctx, wire, ledger, ops[head:head + low_count], low)
            head += low_count
            late += lateness
            low_medians.append(median(latencies["place"]))
            for verb, values in latencies.items():
                per_rate[low][verb] += values
        for rate, count in zip(high, high_counts):
            with tr.span("serve.open_loop", rid=rate):
                per_rate[rate], lateness = open_loop(
                    ctx, wire, ledger, ops[head:head + count], rate)
            late += lateness
            head += count
        ctx.attempted += len(ops)
        stats = tr.call("serve.stats", wire.call, "stats")
        daemon_mb = daemon_peak_mb(proc.pid)
        wire.close()
        wire = None
        tr.call("serve.stop", stop_daemon, proc)
    finally:
        if wire is not None:
            wire.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ctx.check("daemon exit", [] if proc.returncode == 0
              else [f"exit status {proc.returncode}"])

    began = perf()
    try:
        recovered = tr.call("store.recover", cold_recover, store_dir)
    except ReproError as err:
        ctx.check("cold recover", [f"{type(err).__name__}: {err}"])
        recovered = None
    recover_s = perf() - began
    if recovered is not None:
        mapping = replica_map(recovered.placement)
        ctx.check("acked responses match recovered store",
                  ack_problems(mapping, expected))
        ctx.check("replicas", replica_problems(mapping, GAMMA))
        ctx.expect("fingerprint", fingerprint(mapping))
        ctx.expect("servers", recovered.placement.num_servers)
    return {"setup_s": setup_s, "gen_s": gen_s,
            "blocks": blocks, "low_medians": low_medians,
            "pings": pings, "per_rate": per_rate, "late": late,
            "exec_s": exec_seconds(stats), "daemon_mb": daemon_mb,
            "refused": ledger.refused, "ops": len(ops),
            "recover_s": recover_s, "seconds": perf() - start}


def run(ctx) -> None:
    size = SIZES[ctx.size]
    cpus = sorted(os.sched_getaffinity(0))
    pin = {cpus[1]} if len(cpus) >= 2 else None
    if pin:
        os.sched_setaffinity(0, {cpus[0]})
        ctx.notes.append(f"client pinned to CPU {cpus[0]}, daemon to "
                         f"CPU {cpus[1]}")
    try:
        passes = []
        while ctx.another_pass(len(passes),
                               [p["seconds"] for p in passes]):
            passes.append(one_pass(ctx, len(passes), size, pin))
    finally:
        os.sched_setaffinity(0, cpus)
    measured = ctx.untraced(passes)
    low = size["rates"][0]
    blocks = [b for p in measured for b in p["blocks"]]
    low_medians = [m for p in measured for m in p["low_medians"]]
    setups = [p["setup_s"] for p in measured]
    ctx.daemon_rss_mb = max(p["daemon_mb"] for p in passes)
    group = size["checkpoint_every"]
    rounds = [throughput(blocks[i:i + group])
              for i in range(0, len(blocks), group)]
    ctx.e2e["ops_per_s"] = median(rounds)
    ctx.e2e["p50_ms"] = median(low_medians) * 1e3
    ctx.e2e["setup_s"] = median(setups)
    ctx.report.append(f"serve.ops_per_s {ctx.e2e['ops_per_s']:.1f} 1/s  "
                      f"(median over {len(rounds)} rounds of {group} "
                      f"segments of {size['segment_ops']} pipelined ops, "
                      f"the last ending with a checkpoint; window "
                      f"{size['window']}; over all segments "
                      f"{throughput(blocks):.1f})")
    ctx.report.append(timing_line("pipelined segment", [
        size["segment_ops"] / rate for rate in blocks], "s"))
    for rate in size["rates"]:
        places = [x for p in measured for x in p["per_rate"][rate]["place"]]
        every = [x for p in measured for v in p["per_rate"][rate].values()
                 for x in v]
        ctx.report.append(timing_line(f"place @ {rate}/s", places,
                                      "ms", 1e3))
        ctx.report.append(timing_line(f"all ops @ {rate}/s", every,
                                      "ms", 1e3))
        if rate == low:
            ctx.report.append(f"serve.p50_ms {ctx.e2e['p50_ms']:.4f} ms  "
                              f"(median of {len(low_medians)} segment "
                              f"medians, place @ {rate}/s)")
    ctx.report.append(timing_line("setup_s", setups, "s"))
    ctx.report.append(f"daemon peak rss {ctx.daemon_rss_mb:.1f} MB "
                      f"(its own VmHWM, read before the stop)")
    if not ctx.trace:
        return
    plain, traced = passes[0], passes[-1]
    ctx.overhead = (throughput(plain["blocks"])
                    / throughput(traced["blocks"]) - 1.0)
    lay = ctx.layer
    lay["workloads.gen_s"] = traced["gen_s"]
    lay["serve.ping_us"] = median(traced["pings"]) * 1e6
    lay["serve.exec_us"] = traced["exec_s"] * 1e6
    low_samples = traced["per_rate"][low]["place"]
    lay["serve.overhead_us"] = (sum(low_samples) / len(low_samples)
                                - traced["exec_s"]) * 1e6
    lay["serve.p99_ms"] = percentile(low_samples, 99) * 1e3
    lay["serve.refused"] = traced["refused"] / traced["ops"]
    lay["serve.gen_late_p99_ms"] = tail(traced["late"])[1] * 1e3
    lay["serve.daemon_rss_mb"] = ctx.daemon_rss_mb
    lay["store.recover_s"] = traced["recover_s"]
