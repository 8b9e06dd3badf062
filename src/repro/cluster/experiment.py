"""The cluster experiment harness (Section V-A/V-B methodology).

Runs one end-to-end scenario against the simulated cluster:

1. build machines and a router from a tenant -> servers assignment,
2. attach each tenant's closed-loop clients,
3. warm up (caches fill, the closed-loop system reaches steady state),
4. optionally fail a set of servers (worst-overload selection is the
   caller's job, via :mod:`repro.cluster.failures`),
5. measure query latencies for the measurement window,
6. report p99 / SLA verdict / utilization.

The defaults mirror the paper (five-minute warm-up and measurement, 5 s
p99 SLA) scaled down by ``time_scale`` so the default test/bench runs
are fast; pass ``time_scale=1.0`` for paper-duration runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import faults
from ..errors import ConfigurationError, SimulationError
from ..workloads.tpch import QueryStream, DEMAND_SCALE
from .background import (MaintenanceTask, DEFAULT_MAINTENANCE_DEMAND,
                         DEFAULT_MAINTENANCE_INTERVAL)
from .client import TenantClient, DEFAULT_THINK_MEAN
from .datastore import DataStore, DEFAULT_COLD_PENALTY, DEFAULT_WARM_AFTER
from .engine import Simulator
from .latency import LatencyRecorder, DEFAULT_SLA_SECONDS
from .machine import Machine, DEFAULT_CORES
from .routing import ReplicaRouter

#: Paper durations (seconds).
PAPER_WARMUP = 300.0
PAPER_MEASURE = 300.0


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware and timing knobs of a cluster run."""

    cores: int = DEFAULT_CORES
    think_mean: float = DEFAULT_THINK_MEAN
    demand_scale: float = DEMAND_SCALE
    cold_penalty: float = DEFAULT_COLD_PENALTY
    warm_after: int = DEFAULT_WARM_AFTER
    #: Per-tenant background maintenance (the beta of the load model).
    maintenance_interval: float = DEFAULT_MAINTENANCE_INTERVAL
    maintenance_demand: float = DEFAULT_MAINTENANCE_DEMAND
    warmup: float = PAPER_WARMUP
    measure: float = PAPER_MEASURE
    #: Fraction of warmup+measure actually simulated (speed knob).
    time_scale: float = 1.0
    #: Failures are injected this long before the measurement window so
    #: that re-issued queries drain out of the statistics.
    failure_lead: float = 5.0
    #: When set, lost replicas are re-replicated onto healthy servers
    #: this many (scaled) seconds after the failure: the failed homes
    #: are deregistered, least-loaded healthy servers take over, and
    #: their caches warm up from cold.
    recovery_delay: Optional[float] = None
    sla_seconds: float = DEFAULT_SLA_SECONDS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.warmup < 0 or self.measure <= 0:
            raise ConfigurationError(
                f"invalid durations: warmup={self.warmup}, "
                f"measure={self.measure}")
        if not (0 < self.time_scale <= 1.0):
            raise ConfigurationError(
                f"time_scale must be in (0, 1], got {self.time_scale}")

    @property
    def scaled_warmup(self) -> float:
        return self.warmup * self.time_scale

    @property
    def scaled_measure(self) -> float:
        return self.measure * self.time_scale


@dataclass
class ClusterResult:
    """Outcome of one cluster run.

    ``p99`` is the SLA metric: the worst per-server 99th-percentile
    latency.  The load model ties the SLA to per-server load, so
    overload manifests per server; every tenant on a compliant server is
    compliant.  ``global_p99`` is the cluster-wide percentile over all
    queries, for reference (it dilutes single-server overload among
    healthy servers).
    """

    p99: float
    global_p99: float
    mean_latency: float
    completed: int
    dropped: int
    reissued: int
    meets_sla: bool
    violating_tenants: List[int] = field(default_factory=list)
    failed_servers: List[int] = field(default_factory=list)
    utilization: Dict[int, float] = field(default_factory=dict)
    events: int = 0
    max_post_failure_clients: float = 0.0
    #: Replicas re-homed by in-run recovery (0 without recovery_delay).
    recovered_replicas: int = 0

    def __str__(self) -> str:
        verdict = "meets SLA" if self.meets_sla else "VIOLATES SLA"
        return (f"ClusterResult(p99={self.p99:.2f}s, "
                f"global_p99={self.global_p99:.2f}s, "
                f"mean={self.mean_latency:.2f}s, n={self.completed}, "
                f"failed={list(self.failed_servers)}, {verdict})")


class ClusterExperiment:
    """One scenario: an assignment, client populations, optional failures."""

    def __init__(self, tenant_homes: Dict[int, Sequence[int]],
                 tenant_clients: Dict[int, int],
                 config: Optional[ClusterConfig] = None) -> None:
        if not tenant_homes:
            raise ConfigurationError("no tenants to run")
        for tid in tenant_homes:
            if tenant_clients.get(tid, 0) < 0:
                raise ConfigurationError(
                    f"tenant {tid}: negative client count")
        self.tenant_homes = {t: list(h) for t, h in tenant_homes.items()}
        self.tenant_clients = dict(tenant_clients)
        self.config = config if config is not None else ClusterConfig()

    def run(self, fail_servers: Sequence[int] = (),
            latency_csv: Optional[str] = None,
            obs=None) -> ClusterResult:
        """Execute the scenario; ``fail_servers`` fail together shortly
        before the measurement window opens.

        ``latency_csv`` writes every in-window latency sample
        (completion time, tenant, serving machine, query, latency) to
        the given path for offline analysis.

        ``obs`` (a :class:`~repro.obs.MetricsRegistry`) feeds the run's
        query/SLA metrics: per-query latency histograms and completion
        counters from the :class:`LatencyRecorder`, dispatched-event
        counts from the :class:`Simulator`, and end-of-run SLA gauges
        (``cluster.p99_seconds``, ``cluster.meets_sla``).
        """
        cfg = self.config
        sim = Simulator(obs=obs)
        rng = np.random.default_rng(cfg.seed)
        machine_ids = sorted({h for homes in self.tenant_homes.values()
                              for h in homes})
        for fid in fail_servers:
            if fid not in machine_ids:
                raise SimulationError(
                    f"cannot fail unknown server {fid}")
        machines = {mid: Machine(sim, mid, cores=cfg.cores)
                    for mid in machine_ids}
        datastore = DataStore(cold_penalty=cfg.cold_penalty,
                              warm_after=cfg.warm_after)
        router = ReplicaRouter(sim, machines, self.tenant_homes, datastore)

        warmup = cfg.scaled_warmup
        measure = cfg.scaled_measure
        recorder = LatencyRecorder(window_start=warmup,
                                   window_end=warmup + measure,
                                   obs=obs)

        clients: List[TenantClient] = []
        next_client_id = 0
        for tenant_id in sorted(self.tenant_homes):
            for _ in range(self.tenant_clients.get(tenant_id, 0)):
                stream = QueryStream(rng, scale=cfg.demand_scale)
                client = TenantClient(
                    sim, client_id=next_client_id, tenant_id=tenant_id,
                    router=router, stream=stream, recorder=recorder,
                    rng=rng, think_mean=cfg.think_mean)
                clients.append(client)
                next_client_id += 1
        if not clients:
            raise ConfigurationError("no clients configured")
        for client in clients:
            client.start()

        # Background maintenance: every machine hosting a tenant's data
        # pays the per-tenant overhead, regardless of client traffic.
        # Like the query workload, the tenant's total overhead (the beta
        # of the load model, calibrated on a single unreplicated machine)
        # is shared between the tenant's *surviving* replicas: each home
        # runs the cycle at 1/alive of the single-machine rate, so a
        # failure shifts the failed replica's maintenance share onto the
        # survivors just like its query share.
        tasks: List[MaintenanceTask] = []
        for tenant_id, homes in self.tenant_homes.items():
            for mid in homes:
                task = MaintenanceTask(
                    sim, machines[mid], tenant_id, rng,
                    interval=cfg.maintenance_interval,
                    demand=cfg.maintenance_demand,
                    alive_homes=(lambda t=tenant_id:
                                 len(router.alive_homes(t))))
                task.start()
                tasks.append(task)

        recovered = [0]
        chaos_victims: List[int] = []
        if faults.active() and faults.should("cluster.machine.fail"):
            # Fail one machine the scenario did not plan to lose, at
            # the moment planned failures would land.  The firing *is*
            # the scheduling decision (deterministic: highest live id).
            spare = [mid for mid in machine_ids
                     if mid not in set(fail_servers)]
            if spare:
                victim = spare[-1]
                chaos_victims.append(victim)
                sim.schedule_at(
                    max(0.0, warmup - cfg.failure_lead * cfg.time_scale),
                    lambda: router.fail_machine(victim))
        if fail_servers:
            fail_at = max(0.0, warmup - cfg.failure_lead * cfg.time_scale)

            def inject() -> None:
                for fid in fail_servers:
                    router.fail_machine(fid)

            sim.schedule_at(fail_at, inject)

            if cfg.recovery_delay is not None:
                from .failures import plan_replacement_homes

                def recover() -> None:
                    current = {tid: router.tenant_homes(tid)
                               for tid in self.tenant_homes}
                    try:
                        plan = plan_replacement_homes(
                            current, self.tenant_clients, fail_servers,
                            candidates=machine_ids)
                    except ConfigurationError:
                        return  # nowhere to re-replicate
                    for tenant_id, targets in plan.items():
                        failed_homes = [h for h in current[tenant_id]
                                        if h in fail_servers]
                        for old, new in zip(failed_homes, targets):
                            router.remove_home(tenant_id, old)
                            router.add_home(tenant_id, new)
                            task = MaintenanceTask(
                                sim, machines[new], tenant_id, rng,
                                interval=cfg.maintenance_interval,
                                demand=cfg.maintenance_demand,
                                alive_homes=(lambda t=tenant_id:
                                             len(router.alive_homes(t))))
                            task.start()
                            tasks.append(task)
                            recovered[0] += 1

                sim.schedule_at(
                    fail_at + cfg.recovery_delay * cfg.time_scale,
                    recover)

        sim.run_until(warmup + measure)

        if latency_csv is not None:
            recorder.to_csv(latency_csv)
        utilization = {mid: machines[mid].utilization()
                       for mid in machine_ids}
        if recorder.count == 0:
            if recorder.dropped == 0:
                raise SimulationError(
                    "no queries completed inside the measurement window; "
                    "increase measure time or client counts")
            # Every query was dropped (e.g. all replicas of all tenants
            # failed): latency is unbounded and the SLA is violated.
            return ClusterResult(
                p99=float("inf"), global_p99=float("inf"),
                mean_latency=float("inf"), completed=0,
                dropped=recorder.dropped, reissued=router.reissued,
                meets_sla=False, violating_tenants=[],
                failed_servers=list(fail_servers) + chaos_victims,
                utilization=utilization, events=sim.events_dispatched,
                recovered_replicas=recovered[0])
        meets = recorder.meets_sla(cfg.sla_seconds)
        if obs is not None:
            obs.gauge("cluster.p99_seconds").set(
                recorder.worst_server_p99())
            obs.gauge("cluster.meets_sla").set(1.0 if meets else 0.0)
            obs.gauge("cluster.dropped").set(recorder.dropped)
        return ClusterResult(
            p99=recorder.worst_server_p99(),
            global_p99=recorder.p99(),
            mean_latency=recorder.mean_latency(),
            completed=recorder.count,
            dropped=recorder.dropped,
            reissued=router.reissued,
            meets_sla=meets,
            violating_tenants=recorder.violating_tenants(cfg.sla_seconds),
            failed_servers=list(fail_servers) + chaos_victims,
            utilization=utilization,
            events=sim.events_dispatched,
            recovered_replicas=recovered[0],
        )
