"""Elastic tenancy study: tenants whose load changes over time.

The RTP baseline's setting is *elastic* in-memory clusters — a tenant's
client count (and so its load) moves with demand.  This harness drives
a placement algorithm with load-update events on a fixed tenant
population and measures what elasticity costs:

* **migrations** — load updates that moved the tenant to different
  servers (data movement an operator must pay for);
* **in-place updates** — updates absorbed by the tenant's current
  servers (CUBEFIT's slot recycling makes same-class resizes in-place
  whenever the robustness check admits them);
* fleet size over time, under the invariant that robustness holds
  after every single update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..algorithms.base import OnlinePlacementAlgorithm
from ..analysis.report import Table
from ..core.tenant import Tenant
from ..core.validation import audit
from ..errors import ConfigurationError
from ..workloads.distributions import LoadDistribution


@dataclass(frozen=True)
class ElasticityConfig:
    """Workload parameters for an elasticity run."""

    n_tenants: int = 200
    n_updates: int = 400
    #: Multiplicative resize factor range (log-uniform).
    min_factor: float = 0.5
    max_factor: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tenants < 1 or self.n_updates < 0:
            raise ConfigurationError(
                "n_tenants must be >= 1 and n_updates >= 0")
        if not (0 < self.min_factor <= self.max_factor):
            raise ConfigurationError(
                "need 0 < min_factor <= max_factor")


@dataclass
class ElasticityResult:
    """Outcome of one elasticity run."""

    algorithm: str
    config: ElasticityConfig
    updates: int = 0
    migrations: int = 0
    in_place: int = 0
    load_migrated: float = 0.0
    servers_start: int = 0
    servers_end: int = 0
    robust_throughout: bool = True
    #: Metrics snapshot of the run (None when not instrumented).
    metrics: Optional[Dict[str, object]] = None

    @property
    def migration_rate(self) -> float:
        return self.migrations / self.updates if self.updates else 0.0

    def to_table(self) -> Table:
        table = Table(
            title=f"Elasticity — {self.algorithm}",
            columns=["updates", "migrations", "in_place",
                     "migration_rate", "load_migrated",
                     "servers_start", "servers_end"])
        table.add_row(self.updates, self.migrations, self.in_place,
                      round(self.migration_rate, 3),
                      round(self.load_migrated, 2),
                      self.servers_start, self.servers_end)
        return table


def run_elasticity(factory: Callable[[], OnlinePlacementAlgorithm],
                   distribution: LoadDistribution,
                   config: Optional[ElasticityConfig] = None,
                   audit_every: int = 50,
                   obs=None) -> ElasticityResult:
    """Place a population, then apply random resizes.

    ``audit_every`` controls how often the full robustness audit runs
    during the update stream (every update would be quadratic); the
    final state is always audited.

    ``load_migrated`` counts only the load of replicas that actually
    changed servers: a resize that moves one of gamma replicas costs
    one replica's share (``new_load / gamma``) of data movement, not
    the tenant's whole load.

    ``obs`` (a :class:`~repro.obs.MetricsRegistry`) instruments the
    run; the final snapshot lands in ``ElasticityResult.metrics``.
    """
    cfg = config if config is not None else ElasticityConfig()
    rng = np.random.default_rng(cfg.seed)
    algorithm = factory()
    if obs is not None:
        algorithm.attach_obs(obs)
    loads = distribution.sample(rng, cfg.n_tenants)
    for tid, load in enumerate(loads):
        algorithm.place(Tenant(tid, float(load)))
    result = ElasticityResult(algorithm=algorithm.name, config=cfg,
                              servers_start=algorithm.placement
                              .num_nonempty_servers)
    current = {tid: float(load) for tid, load in enumerate(loads)}
    log_lo, log_hi = np.log(cfg.min_factor), np.log(cfg.max_factor)
    for step in range(cfg.n_updates):
        tid = int(rng.integers(0, cfg.n_tenants))
        factor = float(np.exp(rng.uniform(log_lo, log_hi)))
        new_load = min(max(current[tid] * factor, 1e-4), 1.0)
        before = set(algorithm.placement.tenant_servers(tid).values())
        algorithm.update_load(tid, new_load)
        after = set(algorithm.placement.tenant_servers(tid).values())
        result.updates += 1
        if after == before:
            result.in_place += 1
        else:
            result.migrations += 1
            # Only the replicas that landed on new servers move data;
            # each carries new_load / gamma of the tenant's load.
            moved = len(after - before)
            migrated = (new_load / algorithm.placement.gamma) * moved
            result.load_migrated += migrated
            if obs is not None:
                obs.counter("elasticity.migrations").inc()
                obs.histogram("elasticity.migrated_load").observe(
                    migrated)
        current[tid] = new_load
        if audit_every and (step + 1) % audit_every == 0:
            if not audit(algorithm.placement).ok:
                result.robust_throughout = False
    if not audit(algorithm.placement).ok:
        result.robust_throughout = False
    result.servers_end = algorithm.placement.num_nonempty_servers
    if obs is not None:
        result.metrics = obs.snapshot()
    return result
