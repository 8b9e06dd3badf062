"""Scaling study: servers and wall time as functions of tenant count.

Section V-C notes the simulator captures "the amount of time each
placement algorithm needs to consolidate tenants onto servers"; this
harness sweeps the sequence length to expose each algorithm's scaling
behaviour (CUBEFIT's near-linear time, the quadratic tendencies of
scan-heavy heuristics) and how the savings metric evolves with scale —
the paper's "asymptotic performance ... is significantly better when
there is a large number of tenants" claim, quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.report import Table
from ..errors import ConfigurationError
from ..workloads.distributions import LoadDistribution
from ..workloads.sequences import generate_sequence
from .runner import AlgorithmFactory, run_once


@dataclass
class ScalingPoint:
    """One (algorithm, n) measurement."""

    algorithm: str
    tenants: int
    servers: int
    seconds: float
    utilization: float

    @property
    def tenants_per_second(self) -> float:
        return self.tenants / self.seconds if self.seconds > 0 \
            else float("inf")


@dataclass
class ScalingStudy:
    """All measurements of one sweep."""

    distribution: str
    points: List[ScalingPoint] = field(default_factory=list)
    #: Metrics snapshot accumulated over the sweep (None when the run
    #: was not instrumented).
    metrics: Optional[Dict[str, object]] = None

    def series(self, algorithm: str) -> List[ScalingPoint]:
        return [p for p in self.points if p.algorithm == algorithm]

    def savings_series(self, baseline: str,
                       candidate: str) -> List[tuple]:
        """(n, savings%) pairs — how the savings metric evolves with
        scale.

        Savings are measured *relative to the baseline*:
        ``(baseline - candidate) / baseline * 100`` is the percentage
        of the baseline's servers the candidate avoids, so 50% means
        "half the baseline fleet".  (An earlier revision divided by the
        candidate, silently inflating every figure; dividing by the
        baseline keeps the metric bounded by 100% and comparable
        across scales.)
        """
        base = {p.tenants: p.servers for p in self.series(baseline)}
        cand = {p.tenants: p.servers for p in self.series(candidate)}
        out = []
        for n in sorted(set(base) & set(cand)):
            if base[n] > 0:
                out.append((n, (base[n] - cand[n]) / base[n] * 100.0))
        return out

    def to_table(self) -> Table:
        table = Table(
            title=f"Scaling study on {self.distribution}",
            columns=["algorithm", "tenants", "servers", "seconds",
                     "tenants_per_s", "utilization"])
        for p in self.points:
            table.add_row(p.algorithm, p.tenants, p.servers,
                          round(p.seconds, 4),
                          round(p.tenants_per_second),
                          round(p.utilization, 4))
        return table

    def __str__(self) -> str:
        return self.to_table().to_text()


def scaling_study(factories: Dict[str, AlgorithmFactory],
                  distribution: LoadDistribution,
                  tenant_counts: Sequence[int],
                  seed: int = 0, obs=None) -> ScalingStudy:
    """Run every algorithm over increasing prefixes of one workload.

    Using nested prefixes of a single sequence (rather than fresh draws
    per size) isolates the scale effect from sampling noise.

    ``obs`` (a :class:`~repro.obs.MetricsRegistry`) is attached to every
    run; the accumulated snapshot lands in ``ScalingStudy.metrics``.
    """
    if not factories:
        raise ConfigurationError("no algorithms to study")
    counts = sorted(set(tenant_counts))
    if not counts or counts[0] < 1:
        raise ConfigurationError(
            f"tenant_counts must be positive, got {tenant_counts}")
    full = generate_sequence(distribution, counts[-1], seed=seed)
    study = ScalingStudy(distribution=distribution.name)
    for n in counts:
        prefix = full.tenants[:n]
        from ..core.tenant import TenantSequence
        sequence = TenantSequence(tenants=prefix,
                                  description=distribution.name,
                                  seed=seed, metadata={"n": n})
        for name, factory in factories.items():
            stats = run_once(factory, sequence, obs=obs)
            study.points.append(ScalingPoint(
                algorithm=name, tenants=n, servers=stats.servers,
                seconds=stats.placement_seconds,
                utilization=stats.utilization))
    if obs is not None:
        study.metrics = obs.snapshot()
    return study
