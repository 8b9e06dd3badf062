"""Shared plumbing: the run context, span tracing, statistics, checks.

Every workload module exposes ``run(ctx)``; it drives the program through
its public API, records samples and correctness checks on the
:class:`Run` context, and fills ``ctx.e2e`` (end-to-end metrics) and
``ctx.layer`` (per-layer metrics).  ``run.py`` prints them.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

perf = time.perf_counter

#: Layers of the program the benchmark calls into (span-name prefixes).
LAYERS = ("workloads", "algorithms", "core", "store", "serve", "fleet")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return f"p{q:g}", percentile(values, q)
    return "max", max(values) if values else 0.0


def throughput(rates: Sequence[float]) -> float:
    """Total work over total time, for blocks of equal work."""
    return len(rates) / sum(1.0 / rate for rate in rates)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timing_line(name: str, samples: Sequence[float], unit: str,
                scale: float = 1.0) -> str:
    """``name median tail n`` for one timing, as the report prints it."""
    label, high = tail(samples)
    return (f"{name:<28} median {median(samples) * scale:.4f} {unit}  "
            f"{label} {high * scale:.4f} {unit}  n={len(samples)}")


# ----------------------------------------------------------------------
# Packing checks
# ----------------------------------------------------------------------
def replica_map(placement) -> Dict[int, List[int]]:
    """``tenant -> [server of replica 0, replica 1, ...]``."""
    out = {}
    for tenant_id in placement.tenant_ids:
        by_index = placement.tenant_servers(tenant_id)
        out[tenant_id] = [by_index[i] for i in sorted(by_index)]
    return out


def fingerprint(mapping: Dict[int, List[int]]) -> str:
    """sha256 over the canonical sorted ``[tenant, [servers]]`` list."""
    digest = hashlib.sha256()
    for tenant_id in sorted(mapping):
        digest.update(json.dumps([tenant_id, mapping[tenant_id]],
                                 separators=(",", ":")).encode("ascii"))
        digest.update(b";")
    return digest.hexdigest()


def replica_problems(mapping: Dict[int, List[int]], gamma: int
                     ) -> List[str]:
    """Tenants without exactly ``gamma`` replicas on distinct servers."""
    bad = [tenant for tenant, servers in mapping.items()
           if len(servers) != gamma or len(set(servers)) != gamma]
    return [f"{len(bad)} tenant(s) without {gamma} distinct replicas, "
            f"e.g. {bad[:3]}"] if bad else []


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Tracer:
    """Spans recorded in memory around the benchmark's calls into layers.

    A span is ``(name, start, end, parent, request_id)``; ``parent`` is
    the index of the enclosing span (-1 at the top).  The layer is the
    name's first dotted component.  With ``enabled`` false every call
    runs untimed and nothing is recorded.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _open(self, name: str, rid) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), 0.0, parent, rid])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf()
        self._stack.pop()

    @contextmanager
    def _span(self, name: str, rid):
        index = self._open(name, rid)
        try:
            yield
        finally:
            self._close(index)

    def span(self, name: str, rid=None):
        """A span around a ``with`` block (nothing when disabled)."""
        return self._span(name, rid) if self.enabled else nullcontext()

    def call(self, name: str, fn: Callable, *args, rid=None):
        """``fn(*args)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args)
        with self._span(name, rid):
            return fn(*args)

    def record(self, name: str, start: float, end: float,
               rid=None) -> None:
        """Add a span timed by the caller (e.g. one request's round
        trip, which overlaps its neighbours in a pipelined window)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, start, end, parent, rid])

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(end - start for span_name, start, end, _p, _r
                   in self.spans if span_name == name)

    def self_times(self) -> Dict[str, float]:
        """Seconds attributed to each layer.

        Every instant covered by some span goes to the deepest span
        active then (the latest-started one among equals), so a span's
        share is its duration minus what its children cover, and
        overlapping sibling requests are not counted twice.
        """
        depth = []
        for _name, _start, _end, parent, _rid in self.spans:
            depth.append(0 if parent < 0 else depth[parent] + 1)
        events = []
        for index, (_n, start, end, _p, _r) in enumerate(self.spans):
            events.append((start, 1, index))
            events.append((end, 0, index))
        events.sort()
        totals: Dict[str, float] = {}
        active: List[Tuple[int, float, int]] = []
        closed = set()
        last = None
        for when, opening, index in events:
            while active and active[0][2] in closed:
                heapq.heappop(active)
            if active and last is not None:
                owner = self.spans[active[0][2]][0].split(".")[0]
                totals[owner] = totals.get(owner, 0.0) + (when - last)
            last = when
            if opening:
                start = self.spans[index][1]
                heapq.heappush(active, (-depth[index], -start, index))
            else:
                closed.add(index)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, rid in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "rid": rid}) + "\n")


# ----------------------------------------------------------------------
# Process and host facts
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def written_bytes() -> int:
    """Bytes this process has passed to write calls (``wchar``)."""
    with open("/proc/self/io") as io:
        for line in io:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                if (target == point or target.startswith(
                        point.rstrip("/") + "/")) and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


class FsyncShim:
    """Turns ``os.fsync`` into a counted no-op for this process.

    The stores must live inside the checkout, which is usually a disk;
    a memory-backed filesystem, where fsync returns at once, is not
    available there.  With the shim the program still issues every
    fsync its policy asks for (so the counts stay comparable) but does
    not wait on the disk, whose latency on shared virtual disks
    swamps the program's own cost.
    """

    #: Installs the same shim in a daemon before running ``repro``.
    DAEMON_BOOT = ("import os, runpy; os.fsync = lambda fd: None; "
                   "runpy.run_module('repro', run_name='__main__', "
                   "alter_sys=True)")

    def __init__(self) -> None:
        self.calls = 0

    def install(self) -> None:
        os.fsync = self._fsync

    def _fsync(self, fd: int) -> None:
        self.calls += 1


def host_facts(workdir: Path) -> Dict[str, object]:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workdir_fs": filesystem_type(workdir),
    }


# ----------------------------------------------------------------------
# The run context
# ----------------------------------------------------------------------
class Run:
    """State of one benchmark invocation, shared with its workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, size: str, workdir: Path,
                 expected: Dict[str, object], record: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.workdir = workdir
        self.tracer = Tracer(False)
        self.started = perf()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: List[str] = []
        self.report: List[str] = []
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        #: Untraced over traced rate, minus one (traced runs only).
        self.overhead = 0.0
        #: What that gap covers, as the report names it.
        self.overhead_of = "tracing"
        #: Peak RSS of the serve daemon, added to ``peak_rss_mb``.
        self.daemon_rss_mb = 0.0
        self.fsyncs = FsyncShim()
        self._expected = expected
        self._record = record
        self.recorded: Dict[str, object] = {}

    # -- pacing ---------------------------------------------------------
    def elapsed(self) -> float:
        return perf() - self.started

    def another_pass(self, passes: int, pass_seconds: Sequence[float]
                     ) -> bool:
        """Whether to start pass number ``passes`` (0-based).

        Untraced runs keep going while one more pass of the mean
        length still ends within ``--seconds``.  A traced run makes
        exactly two passes: one untraced, one traced, so the tracing
        overhead is measured inside the run.
        """
        if self.trace:
            return passes < 2
        if passes == 0:
            return True
        mean = sum(pass_seconds) / len(pass_seconds)
        return self.elapsed() + mean <= self.seconds

    def untraced(self, passes: list) -> list:
        """The passes whose timings the report quotes: in a traced run
        only the first, untraced one."""
        return passes[:1] if self.trace else passes

    def start_pass(self, index: int) -> bool:
        """Begin pass ``index``; returns whether it is traced.

        The previous pass's fleet holds reference cycles; they are
        collected here, untimed, so that no pass pays for another's.
        In a traced run every pass but the first is traced.
        """
        gc.collect()
        self.tracer.enabled = self.trace and index > 0
        return self.tracer.enabled

    # -- correctness ----------------------------------------------------
    def check(self, name: str, problems: Sequence[str]) -> None:
        """Record one correctness check; a failure is a failed op."""
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))

    def op_failed(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def expect(self, key: str, value) -> None:
        """Compare ``value`` with the one recorded for this seed.

        Fingerprints and server counts are recorded per size, workload
        and seed in ``expected.json``; an unrecorded seed is checked by
        its audits alone and its values are printed instead.
        """
        if self.recorded.setdefault(key, value) != value:
            self.check(f"{key} repeats across passes",
                       [f"{value} != {self.recorded[key]}"])
        want = (self._expected.get(self.size, {})
                .get(self.workload, {}).get(str(self.seed), {}).get(key))
        if want is None:
            note = f"unrecorded seed: {key} = {value}"
            if not self._record and note not in self.notes:
                self.notes.append(note)
            return
        if want != value:
            self.check(f"expected {key}",
                       [f"got {value}, recorded {want}"])


# ----------------------------------------------------------------------
# Metric catalogue (BENCHMARK.json lists the same names)
# ----------------------------------------------------------------------
#: End-to-end metrics every workload reports with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
)

_ALGOS = ("cubefit", "rfi", "bestfit", "firstfit", "nextfit")

#: Per-layer metrics every traced run reports; a layer the workload
#: never calls reads 0.
PER_LAYER = (
    (("workloads.gen_s", "s"),
     ("algorithms.batch_p50_ms", "ms"),
     ("algorithms.batch_p99_ms", "ms"),
     ("algorithms.place_us", "us"),
     ("algorithms.probes_per_tenant", "ratio"),
     ("algorithms.exact_frac", "ratio"))
    + tuple((f"algorithms.{a}.tenants_per_s", "1/s") for a in _ALGOS)
    + tuple((f"algorithms.{a}.servers", "count") for a in _ALGOS)
    + tuple((f"algorithms.{a}.utilization", "ratio") for a in _ALGOS)
    + tuple((f"algorithms.{op}_{q}_us", "us")
            for op in ("place", "remove", "resize") for q in ("p50", "p99"))
    + (("core.audit_ms", "ms"),
       ("store.append_p50_us", "us"),
       ("store.append_p99_us", "us"),
       ("store.appends", "count"),
       ("store.write_bytes_per_op", "B"),
       ("store.fsyncs_per_op", "ratio"),
       ("store.checkpoint_ms", "ms"),
       ("store.checkpoint_bytes", "B"),
       ("store.recover_s", "s"),
       ("store.recover_load_ms", "ms"),
       ("store.replay_records", "count"),
       ("store.recover_audit_ms", "ms"),
       ("serve.ping_us", "us"),
       ("serve.exec_us", "us"),
       ("serve.overhead_us", "us"),
       ("serve.p99_ms", "ms"),
       ("serve.refused", "ratio"),
       ("serve.gen_late_p99_ms", "ms"),
       ("serve.daemon_rss_mb", "MB"),
       ("fleet.route_s", "s"),
       ("fleet.admit_s", "s"),
       ("fleet.imbalance", "ratio"),
       ("fleet.spilled", "count"),
       ("fleet.checkpoint_s", "s"),
       ("fleet.audit_s", "s"),
       ("fleet.recover_s", "s"))
    + tuple((f"trace.{layer}.self_s", "s") for layer in LAYERS)
    + (("trace.overhead", "ratio"),)
)
