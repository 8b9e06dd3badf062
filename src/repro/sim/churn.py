"""Tenant churn simulation: arrivals and departures over time.

The paper's model is arrival-only; real multi-tenant fleets also lose
tenants.  This harness drives a placement algorithm with a birth-death
workload — Poisson arrivals, exponential tenant lifetimes — and samples
fleet statistics over time, exposing how well each algorithm's freed
space is reclaimed (CUBEFIT's first stage and the checked baselines
reuse departure holes through their normal candidate search).

The simulation is event-driven in *logical* time: what matters to the
placement question is the interleaving of arrivals and departures, not
query-level dynamics (that is :mod:`repro.cluster`'s job).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..algorithms.base import OnlinePlacementAlgorithm
from ..analysis.report import Table
from ..core.tenant import Tenant
from ..core.validation import audit
from ..errors import ConfigurationError
from ..workloads.distributions import LoadDistribution


@dataclass(frozen=True)
class ChurnConfig:
    """Birth-death workload parameters.

    ``arrival_rate`` tenants arrive per unit time; each lives for an
    exponential time with mean ``mean_lifetime``.  In steady state the
    expected population is ``arrival_rate * mean_lifetime``.
    """

    arrival_rate: float = 10.0
    mean_lifetime: float = 50.0
    horizon: float = 200.0
    sample_every: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0 or self.mean_lifetime <= 0:
            raise ConfigurationError(
                "arrival_rate and mean_lifetime must be positive")
        if self.horizon <= 0 or self.sample_every <= 0:
            raise ConfigurationError(
                "horizon and sample_every must be positive")

    @property
    def expected_population(self) -> float:
        return self.arrival_rate * self.mean_lifetime


@dataclass
class ChurnSample:
    """Fleet state at one sample instant."""

    time: float
    tenants: int
    servers_nonempty: int
    servers_opened_total: int
    utilization: float


@dataclass
class ChurnResult:
    """Timeline of one churn run."""

    algorithm: str
    config: ChurnConfig
    samples: List[ChurnSample] = field(default_factory=list)
    arrivals: int = 0
    departures: int = 0
    final_robust: bool = True
    #: Metrics snapshot of the run (None when not instrumented).
    metrics: Optional[Dict[str, object]] = None

    def steady_state(self, skip_fraction: float = 0.5
                     ) -> List[ChurnSample]:
        """Samples after the warm-up portion of the horizon."""
        cut = self.config.horizon * skip_fraction
        return [s for s in self.samples if s.time >= cut]

    @property
    def mean_steady_servers(self) -> float:
        steady = self.steady_state()
        if not steady:
            return 0.0
        return sum(s.servers_nonempty for s in steady) / len(steady)

    @property
    def mean_steady_utilization(self) -> float:
        steady = self.steady_state()
        if not steady:
            return 0.0
        return sum(s.utilization for s in steady) / len(steady)

    def to_table(self) -> Table:
        table = Table(
            title=f"Churn timeline — {self.algorithm} "
                  f"(rate {self.config.arrival_rate}/t, "
                  f"mean life {self.config.mean_lifetime}t)",
            columns=["time", "tenants", "servers", "opened_total",
                     "utilization"])
        for s in self.samples:
            table.add_row(round(s.time, 1), s.tenants, s.servers_nonempty,
                          s.servers_opened_total, round(s.utilization, 3))
        return table


class _ChurnState:
    """Workload-side state of a churn run (survives controller crashes).

    The event heap, tenant-id counter, alive set, and sampling cursor
    belong to the *workload*, not the controller: when
    :func:`run_churn_with_crash` kills the controller mid-run, this
    state carries the stream across the restart exactly as a real
    tenant population would keep arriving and departing while the
    placement controller reboots.
    """

    __slots__ = ("events", "seq", "next_tenant_id", "next_sample",
                 "alive", "applied")

    def __init__(self, cfg: ChurnConfig, rng) -> None:
        # Event heap: (time, seq, kind, tenant_id); seq breaks ties FIFO.
        self.events: List[tuple] = []
        self.seq = 0
        next_arrival = float(rng.exponential(1.0 / cfg.arrival_rate))
        heapq.heappush(self.events, (next_arrival, 0, "arrive", None))
        self.next_tenant_id = 0
        self.next_sample = cfg.sample_every
        self.alive: Dict[int, float] = {}
        #: Events applied so far (arrivals + effective departures).
        self.applied = 0


def _take_sample(at: float, algorithm: OnlinePlacementAlgorithm,
                 result: ChurnResult, obs) -> None:
    sample = _sample(at, algorithm)
    result.samples.append(sample)
    if obs is not None:
        obs.gauge("churn.tenants").set(sample.tenants)
        obs.gauge("churn.servers").set(sample.servers_nonempty)
        obs.gauge("churn.utilization").set(sample.utilization)


def _drive_churn(algorithm: OnlinePlacementAlgorithm,
                 state: _ChurnState, cfg: ChurnConfig,
                 distribution: LoadDistribution, rng,
                 result: ChurnResult, obs,
                 checkpoint_every: Optional[int] = None,
                 stop_after: Optional[int] = None) -> bool:
    """Apply events until the horizon; True when the stream finished.

    ``stop_after`` stops once that many events have been *applied in
    total* (across drivers — ``state.applied`` persists), leaving the
    remaining events on the heap; used to cut the run at a crash point.
    """
    store = algorithm.store
    while state.events:
        if stop_after is not None and state.applied >= stop_after:
            return False
        time, _seq, kind, tenant_id = heapq.heappop(state.events)
        if time > cfg.horizon:
            break
        # Flush all samples due at or before this event's timestamp
        # BEFORE applying the event: a sample at exactly `time` sees
        # the state strictly before the event (see docstring).
        while state.next_sample <= time:
            _take_sample(state.next_sample, algorithm, result, obs)
            state.next_sample += cfg.sample_every
        if kind == "arrive":
            load = float(distribution.sample(rng, 1)[0])
            tenant = Tenant(state.next_tenant_id, load)
            algorithm.place(tenant)
            state.alive[state.next_tenant_id] = load
            result.arrivals += 1
            state.applied += 1
            lifetime = float(rng.exponential(cfg.mean_lifetime))
            state.seq += 1
            heapq.heappush(state.events,
                           (time + lifetime, state.seq, "depart",
                            state.next_tenant_id))
            state.next_tenant_id += 1
            state.seq += 1
            gap = float(rng.exponential(1.0 / cfg.arrival_rate))
            heapq.heappush(state.events,
                           (time + gap, state.seq, "arrive", None))
        else:
            if tenant_id in state.alive:
                algorithm.remove(tenant_id)
                del state.alive[tenant_id]
                result.departures += 1
                state.applied += 1
        if store is not None and checkpoint_every \
                and state.applied % checkpoint_every == 0:
            store.checkpoint_and_compact(algorithm.placement)
    return True


def _finish_churn(algorithm: OnlinePlacementAlgorithm,
                  state: _ChurnState, cfg: ChurnConfig,
                  result: ChurnResult, obs) -> None:
    while state.next_sample <= cfg.horizon:
        _take_sample(state.next_sample, algorithm, result, obs)
        state.next_sample += cfg.sample_every
    result.final_robust = audit(algorithm.placement).ok
    if obs is not None:
        result.metrics = obs.snapshot()


def run_churn(factory: Callable[[], OnlinePlacementAlgorithm],
              distribution: LoadDistribution,
              config: Optional[ChurnConfig] = None,
              rng=None, obs=None) -> ChurnResult:
    """Drive one algorithm through a birth-death tenant workload.

    **Sampling tie-break.** A sample scheduled at time ``t`` reflects
    the fleet state *strictly before* any event at time ``t``: due
    samples are flushed before each event is applied, so an arrival or
    departure landing exactly on a sample instant is *not* visible in
    that sample (it shows up in the next one).  This half-open
    convention (samples cover ``[previous event, t)``) keeps timelines
    deterministic when event and sample times coincide.

    ``rng`` overrides the seeded generator (any object with the
    ``numpy.random.Generator`` ``exponential``/``integers`` surface) —
    useful for scripted, deterministic tests.  ``obs`` (a
    :class:`~repro.obs.MetricsRegistry`) instruments the run: fleet
    gauges track each sample and the final snapshot lands in
    ``ChurnResult.metrics``.  For a durable, restartable churn run see
    :func:`run_churn_with_crash`.
    """
    cfg = config if config is not None else ChurnConfig()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    algorithm = factory()
    if obs is not None:
        algorithm.attach_obs(obs)
    result = ChurnResult(algorithm=algorithm.name, config=cfg)
    state = _ChurnState(cfg, rng)
    _drive_churn(algorithm, state, cfg, distribution, rng, result, obs)
    _finish_churn(algorithm, state, cfg, result, obs)
    return result


def run_churn_seeds(factory: Callable[[], OnlinePlacementAlgorithm],
                    distribution: LoadDistribution,
                    seeds: Sequence[int],
                    config: Optional[ChurnConfig] = None,
                    jobs: int = 1,
                    obs=None) -> List[ChurnResult]:
    """Run one churn timeline per seed, optionally on a worker pool.

    Each seed runs ``run_churn`` with ``replace(config, seed=seed)``;
    results come back in seed order and are bit-identical at any
    ``jobs``.  Per-run metrics recorded against ``obs`` are merged in
    seed order via :func:`repro.par.pmap`.  Durable stores are not
    supported here — a store serializes one run's WAL, not a fan-out.
    """
    from ..par import pmap
    if not seeds:
        raise ConfigurationError("no seeds to run")
    cfg = config if config is not None else ChurnConfig()

    def one_seed(seed: int, run_obs) -> ChurnResult:
        return run_churn(factory, distribution,
                         config=replace(cfg, seed=int(seed)),
                         obs=run_obs)

    return pmap(one_seed, seeds, jobs=jobs, obs=obs)


def run_churn_with_crash(factory: Callable[[],
                                           OnlinePlacementAlgorithm],
                         distribution: LoadDistribution,
                         store_dir,
                         config: Optional[ChurnConfig] = None,
                         crash_after_events: Optional[int] = None,
                         checkpoint_every: Optional[int] = None,
                         obs=None, segment_records: int = 64):
    """Churn run with a simulated controller crash and recovery.

    Applies ``crash_after_events`` arrivals/departures (default: half
    the expected event count over the horizon), kills the controller
    with no shutdown, recovers the placement from checkpoint + WAL
    tail under ``store_dir``, verifies it is replica-for-replica
    identical to the pre-crash state and audit-clean, then resumes the
    surviving event stream on the recovered state.  The tenant
    population is workload state and survives the crash — exactly the
    situation a restarted controller faces.

    Returns a :class:`~repro.sim.soak.CrashRecoveryReport` whose
    ``result`` is the full run's :class:`ChurnResult`.
    """
    from ..store import DurableStore
    from .soak import _crash_step
    cfg = config if config is not None else ChurnConfig()
    if crash_after_events is None:
        crash_after_events = max(
            1, int(cfg.arrival_rate * cfg.horizon) // 2)
    if crash_after_events < 1:
        raise ConfigurationError(
            f"crash_after_events must be >= 1, got {crash_after_events}")
    rng = np.random.default_rng(cfg.seed)
    algorithm = factory()
    if obs is not None:
        algorithm.attach_obs(obs)
    store = DurableStore(store_dir, segment_records=segment_records,
                         obs=obs)
    algorithm.attach_store(store)
    result = ChurnResult(algorithm=algorithm.name, config=cfg)
    state = _ChurnState(cfg, rng)
    finished = _drive_churn(algorithm, state, cfg, distribution, rng,
                            result, obs,
                            checkpoint_every=checkpoint_every,
                            stop_after=crash_after_events)

    # Simulated crash: no close(), no final checkpoint — only what the
    # WAL committed survives.
    resume, report = _crash_step(store_dir, algorithm, state.alive,
                                 obs, segment_records, result,
                                 crash_after_events)
    if not finished:
        _drive_churn(resume, state, cfg, distribution, rng, result,
                     obs, checkpoint_every=checkpoint_every)
    _finish_churn(resume, state, cfg, result, obs)
    resume.store.close()
    return report


def _sample(time: float,
            algorithm: OnlinePlacementAlgorithm) -> ChurnSample:
    placement = algorithm.placement
    return ChurnSample(
        time=time,
        tenants=placement.num_tenants,
        servers_nonempty=placement.num_nonempty_servers,
        servers_opened_total=placement.num_servers,
        utilization=placement.utilization(),
    )
