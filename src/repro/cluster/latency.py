"""Query latency recording and SLA evaluation.

The paper's SLA is a 99th-percentile latency of 5 seconds, measured over
a five-minute window after warm-up.  The recorder keeps per-query
latencies stamped with completion time and evaluates percentiles over a
configurable measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.stats import mean, percentile
from ..errors import ConfigurationError

#: The paper's SLA: 5 seconds at the 99th percentile.
DEFAULT_SLA_SECONDS = 5.0
SLA_PERCENTILE = 99.0


@dataclass
class LatencySample:
    """One completed query.

    ``server_id`` is the machine that determined the latency (the only
    machine for reads; the slowest replica for fan-out updates).
    """

    completed_at: float
    tenant_id: int
    query_name: str
    latency: float
    server_id: int = -1


class LatencyRecorder:
    """Collects samples; computes windowed percentiles.

    ``window`` is the half-open interval ``[start, end)`` of completion
    times included in statistics; samples outside it (warm-up, drain) are
    counted but not aggregated.
    """

    def __init__(self, window_start: float = 0.0,
                 window_end: float = float("inf"),
                 obs=None) -> None:
        if window_end < window_start:
            raise ConfigurationError(
                f"window_end {window_end} < window_start {window_start}")
        self.window_start = window_start
        self.window_end = window_end
        self._samples: List[LatencySample] = []
        #: Queries whose tenant had no surviving replica.
        self.dropped = 0
        #: All completions ever seen (in or out of window).
        self.total_completed = 0
        # Optional metrics feed: every completion (in or out of window)
        # counts under cluster.queries and lands in the latency
        # histogram; drops count under cluster.dropped_queries.
        self._obs = obs

    def record(self, completed_at: float, tenant_id: int,
               query_name: str, latency: float,
               server_id: int = -1) -> None:
        self.total_completed += 1
        obs = self._obs
        if obs is not None:
            obs.counter("cluster.queries").inc()
            obs.histogram("cluster.query_seconds").observe(latency)
        if self.window_start <= completed_at < self.window_end:
            self._samples.append(LatencySample(
                completed_at=completed_at, tenant_id=tenant_id,
                query_name=query_name, latency=latency,
                server_id=server_id))

    def record_dropped(self) -> None:
        self.dropped += 1
        if self._obs is not None:
            self._obs.counter("cluster.dropped_queries").inc()

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Samples inside the measurement window."""
        return len(self._samples)

    def latencies(self) -> List[float]:
        return [s.latency for s in self._samples]

    def p99(self) -> float:
        """The SLA metric; raises if the window is empty."""
        return percentile(self.latencies(), SLA_PERCENTILE)

    def mean_latency(self) -> float:
        return mean(self.latencies())

    def percentile(self, q: float) -> float:
        return percentile(self.latencies(), q)

    def meets_sla(self, sla_seconds: float = DEFAULT_SLA_SECONDS,
                  min_samples: int = 200) -> bool:
        """True when every server's p99 <= SLA *and* no query was dropped
        for lack of a surviving replica (an unavailable tenant violates
        its SLA by definition)."""
        if self.dropped > 0:
            return False
        return self.worst_server_p99(min_samples=min_samples) <= sla_seconds

    def per_tenant_p99(self, min_samples: int = 1) -> Dict[int, float]:
        """p99 per tenant (tenants with >= ``min_samples`` samples)."""
        grouped: Dict[int, List[float]] = {}
        for sample in self._samples:
            grouped.setdefault(sample.tenant_id, []).append(sample.latency)
        return {tid: percentile(vals, SLA_PERCENTILE)
                for tid, vals in grouped.items()
                if len(vals) >= min_samples}

    def worst_tenant_p99(self, min_samples: int = 30) -> float:
        """Largest per-tenant p99 — the SLA metric.

        The SLA is an agreement with each customer, so the system meets
        it only if *every* tenant's 99th-percentile latency is within
        bound; a cluster-wide percentile would dilute an overloaded
        server among healthy ones.  Tenants with fewer than
        ``min_samples`` completions are skipped (their percentile is
        noise); if no tenant qualifies the unfiltered per-tenant maximum
        is used.
        """
        per_tenant = self.per_tenant_p99(min_samples=min_samples)
        if not per_tenant:
            per_tenant = self.per_tenant_p99(min_samples=1)
        return max(per_tenant.values())

    def violating_tenants(self, sla_seconds: float = DEFAULT_SLA_SECONDS,
                          min_samples: int = 30) -> List[int]:
        """Tenants whose p99 exceeds the SLA."""
        per_tenant = self.per_tenant_p99(min_samples=min_samples)
        return sorted(tid for tid, value in per_tenant.items()
                      if value > sla_seconds)

    def per_server_p99(self, min_samples: int = 1) -> Dict[int, float]:
        """p99 per serving machine (servers with >= ``min_samples``)."""
        grouped: Dict[int, List[float]] = {}
        for sample in self._samples:
            grouped.setdefault(sample.server_id, []).append(sample.latency)
        return {sid: percentile(vals, SLA_PERCENTILE)
                for sid, vals in grouped.items()
                if len(vals) >= min_samples}

    def worst_server_p99(self, min_samples: int = 200) -> float:
        """Largest per-server p99 — the SLA metric of the experiments.

        The load model ties the SLA to per-server load ("a load of 1.0
        corresponds to the 5 s p99"), so SLA compliance is judged where
        overload manifests: on individual servers.  Every tenant hosted
        on a compliant server is compliant.  Per-server percentiles are
        statistically solid (thousands of queries per server per
        window), unlike per-tenant percentiles of small tenants.
        """
        per_server = self.per_server_p99(min_samples=min_samples)
        if not per_server:
            per_server = self.per_server_p99(min_samples=1)
        return max(per_server.values())

    def violating_servers(self, sla_seconds: float = DEFAULT_SLA_SECONDS,
                          min_samples: int = 200) -> List[int]:
        """Servers whose p99 exceeds the SLA."""
        per_server = self.per_server_p99(min_samples=min_samples)
        return sorted(sid for sid, value in per_server.items()
                      if value > sla_seconds)

    def throughput(self) -> float:
        """Completions per second inside the window."""
        span = self.window_end - self.window_start
        if span <= 0 or span == float("inf"):
            return 0.0
        return self.count / span

    def to_csv(self, path=None) -> str:
        """Raw in-window samples as CSV (for offline analysis).

        Columns: ``completed_at, tenant_id, server_id, query, latency``.
        Written to ``path`` when given; the text is returned either way.
        """
        lines = ["completed_at,tenant_id,server_id,query,latency"]
        for s in self._samples:
            lines.append(f"{s.completed_at:.6f},{s.tenant_id},"
                         f"{s.server_id},{s.query_name},"
                         f"{s.latency:.6f}")
        text = "\n".join(lines) + "\n"
        if path is not None:
            from pathlib import Path
            Path(path).write_text(text)
        return text
