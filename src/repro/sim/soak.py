"""Soak testing: a randomized operation stream with continuous audits.

Unit and property tests exercise operations in isolation; the soak
harness interleaves *everything* the library supports — arrivals,
departures, elastic resizes, server failures with re-replication, and
repacking passes — against one placement, auditing the robustness
condition after every operation.  It is the closest thing to a chaos
test a packing data structure can have, and it doubles as a throughput
measurement for mixed workloads.

Run via ``python -m repro soak`` or directly::

    from repro.sim.soak import SoakConfig, run_soak
    result = run_soak(lambda: CubeFit(gamma=2, num_classes=10))
    assert result.violations == 0
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import OnlinePlacementAlgorithm
from ..algorithms.repack import Repacker
from ..core.recovery import RecoveryPlanner
from ..core.tenant import Tenant
from ..core.validation import IncrementalAuditor, audit
from ..errors import ConfigurationError

#: Operation mix weights (normalized at run time).
DEFAULT_MIX = {
    "place": 5.0,
    "remove": 3.0,
    "resize": 2.0,
    "fail_and_recover": 0.3,
    "repack": 0.1,
}


@dataclass(frozen=True)
class SoakConfig:
    """Parameters of a soak run."""

    operations: int = 500
    #: Operation mix; keys as in DEFAULT_MIX.
    mix: Optional[Dict[str, float]] = None
    #: Audit after every operation (True) or only at the end.
    audit_each: bool = True
    min_load: float = 0.02
    max_load: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.operations < 1:
            raise ConfigurationError("operations must be >= 1")
        if not (0 < self.min_load <= self.max_load <= 1.0):
            raise ConfigurationError(
                "need 0 < min_load <= max_load <= 1")
        if self.mix is not None:
            unknown = set(self.mix) - set(DEFAULT_MIX)
            if unknown:
                raise ConfigurationError(
                    f"unknown soak operations: {sorted(unknown)}")


@dataclass
class SoakResult:
    """Outcome of a soak run."""

    algorithm: str
    operations: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    violations: int = 0
    first_violation_op: Optional[int] = None
    final_tenants: int = 0
    final_servers: int = 0
    recovered_replicas: int = 0
    repacked_servers: int = 0
    #: Metrics snapshot of the run (None when not instrumented).
    metrics: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def __str__(self) -> str:
        status = "OK" if self.ok else \
            f"{self.violations} AUDIT VIOLATIONS " \
            f"(first at op {self.first_violation_op})"
        ops = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return (f"SoakResult({self.algorithm}: {self.operations} ops "
                f"[{ops}]; {self.final_tenants} tenants on "
                f"{self.final_servers} servers; {status})")


class _SoakDriver:
    """Applies the randomized operation stream to one algorithm.

    The driver owns the *workload* state (alive tenants, next tenant
    id, the rng) separately from the *controller* state (the algorithm
    and its placement), which is what makes kill-and-resume possible:
    :func:`run_soak_with_crash` throws the controller away mid-run and
    hands the surviving workload state to a fresh driver wrapped around
    the recovered placement.

    When a :class:`~repro.store.DurableStore` is attached to the
    algorithm, the place/remove/resize operations log themselves; the
    harness-level mutations that bypass the algorithm hooks — the
    recovery planner's per-replica moves and the repacker's migrations
    — are logged here, after any servers they opened.
    """

    def __init__(self, algorithm: OnlinePlacementAlgorithm,
                 cfg: SoakConfig, rng, result: SoakResult,
                 obs=None, checkpoint_every: Optional[int] = None,
                 alive: Optional[List[int]] = None,
                 next_id: int = 0) -> None:
        self.algorithm = algorithm
        self.placement = algorithm.placement
        self.cfg = cfg
        self.rng = rng
        self.result = result
        self.obs = obs
        self.checkpoint_every = checkpoint_every
        self.alive: List[int] = list(alive) if alive is not None else []
        self.next_id = next_id
        #: Kind of the operation the last ``step`` ran (or started):
        #: the chaos harness uses it to tell roll-backable wrapper ops
        #: (place/remove/resize) from compound plan-and-apply ops
        #: (fail_and_recover, repack) that cannot be contained in
        #: place when a fault interrupts them.
        self.last_op = ""
        self.budget = algorithm.guaranteed_failures
        mix = dict(DEFAULT_MIX)
        if cfg.mix:
            mix.update(cfg.mix)
        self.names = sorted(mix)
        weights = np.array([mix[n] for n in self.names], dtype=float)
        self.weights = weights / weights.sum()
        # Audit-per-operation is the soak's dominant cost; the
        # incremental auditor re-evaluates only servers the operation
        # touched.
        self.auditor = IncrementalAuditor(self.placement,
                                          failures=self.budget) \
            if cfg.audit_each else None

    def _check(self, op_index: int) -> None:
        if self.auditor is None:
            return
        if not self.auditor.check().ok:
            self.result.violations += 1
            if self.result.first_violation_op is None:
                self.result.first_violation_op = op_index

    def step(self, op_index: int) -> None:
        cfg, rng, placement = self.cfg, self.rng, self.placement
        algorithm, result, obs = self.algorithm, self.result, self.obs
        store = algorithm.store
        op = str(rng.choice(self.names, p=self.weights))
        if op in ("remove", "resize", "fail_and_recover") \
                and not self.alive:
            op = "place"
        if op == "fail_and_recover" and \
                (placement.gamma < 2 or self.budget == 0):
            # No failure budget to spend: gamma=1 keeps no redundancy
            # (guaranteed_failures is 0) and the 1..gamma-1 failure
            # count drawn below would be an empty range.
            op = "place"
        if op == "repack" and placement.num_nonempty_servers < 4:
            op = "place"
        result.counts[op] = result.counts.get(op, 0) + 1
        result.operations += 1
        self.last_op = op

        if op == "place":
            load = float(rng.uniform(cfg.min_load, cfg.max_load))
            algorithm.place(Tenant(self.next_id, load))
            self.alive.append(self.next_id)
            self.next_id += 1
        elif op == "remove":
            victim = self.alive.pop(int(rng.integers(len(self.alive))))
            algorithm.remove(victim)
        elif op == "resize":
            tenant_id = self.alive[int(rng.integers(len(self.alive)))]
            load = float(rng.uniform(cfg.min_load, cfg.max_load))
            algorithm.update_load(tenant_id, load)
        elif op == "fail_and_recover":
            nonempty = [s.server_id for s in placement if len(s) > 0]
            # Fail at most gamma-1 servers (the robustness budget) and
            # never more than exist; the range is non-empty because
            # gamma < 2 was converted to "place" above.
            count = min(len(nonempty),
                        int(rng.integers(1, placement.gamma)))
            victims = [int(v) for v in rng.choice(nonempty, size=count,
                                                  replace=False)]
            plan = RecoveryPlanner(placement, failures=self.budget,
                                   obs=obs).recover(victims)
            result.recovered_replicas += plan.replicas_relocated
            if store is not None:
                store.log_open_through(placement._next_server_id)
                for move in plan.moves:
                    store.log_move(move.tenant_id, move.replica_index,
                                   move.load, move.source, move.target)
            if obs is not None:
                obs.counter("soak.servers_failed").inc(count)
                obs.emit("fail_and_recover", victims=victims,
                         relocated=plan.replicas_relocated)
        elif op == "repack":
            plan = Repacker(placement, failures=self.budget,
                            obs=obs).repack(max_drains=2)
            result.repacked_servers += len(plan.drained_servers)
            if store is not None:
                # The repacker never opens servers, but stay defensive.
                store.log_open_through(placement._next_server_id)
                for migration in plan.migrations:
                    store.log_migrate(migration.tenant_id,
                                      migration.load,
                                      migration.targets)
            if obs is not None:
                obs.emit("repack",
                         drained=list(plan.drained_servers),
                         migrations=len(plan.migrations))
        if store is not None and self.checkpoint_every \
                and (op_index + 1) % self.checkpoint_every == 0:
            store.checkpoint_and_compact(placement)
        self._check(op_index)

    def finish(self) -> None:
        result, placement = self.result, self.placement
        if not self.cfg.audit_each and not audit(
                placement, failures=self.budget).ok:
            result.violations += 1
            result.first_violation_op = self.cfg.operations - 1
        result.final_tenants = placement.num_tenants
        result.final_servers = placement.num_nonempty_servers
        if self.obs is not None:
            result.metrics = self.obs.snapshot()


def run_soak(factory: Callable[[], OnlinePlacementAlgorithm],
             config: Optional[SoakConfig] = None,
             obs=None, store=None,
             checkpoint_every: Optional[int] = None) -> SoakResult:
    """Drive one algorithm through the randomized operation stream.

    ``obs`` (a :class:`~repro.obs.MetricsRegistry`) instruments the run:
    the algorithm journals every place/remove/resize, the harness
    journals every ``fail_and_recover`` and ``repack``, and the final
    snapshot lands in ``SoakResult.metrics``.  Replaying the run's
    journal therefore yields exactly the operation counts recorded in
    ``SoakResult.counts``.

    ``store`` (a :class:`~repro.store.DurableStore`) makes the run
    restartable: every operation — including the harness-level failure
    recoveries and repacks — is written to the store's WAL, and a
    checkpoint is taken (and the WAL compacted) every
    ``checkpoint_every`` operations.
    """
    cfg = config if config is not None else SoakConfig()
    rng = np.random.default_rng(cfg.seed)
    algorithm = factory()
    if obs is not None:
        algorithm.attach_obs(obs)
    if store is not None:
        if obs is not None:
            store.attach_obs(obs)
        algorithm.attach_store(store)
    result = SoakResult(algorithm=algorithm.name)
    driver = _SoakDriver(algorithm, cfg, rng, result, obs,
                         checkpoint_every=checkpoint_every)
    for op_index in range(cfg.operations):
        driver.step(op_index)
    driver.finish()
    return result


def run_soak_seeds(factory: Callable[[], OnlinePlacementAlgorithm],
                   seeds: Sequence[int],
                   config: Optional[SoakConfig] = None,
                   jobs: int = 1,
                   obs=None) -> List[SoakResult]:
    """Run one soak per seed, optionally on a forked worker pool.

    Each seed runs ``run_soak`` with ``replace(config, seed=seed)``;
    results come back in seed order and are bit-identical at any
    ``jobs`` (every run re-derives its stream from its own seed).
    Per-run metrics recorded against ``obs`` are merged in seed order
    via :func:`repro.par.pmap`.  Durable stores are not supported here
    — a store serializes one run's WAL, not a fan-out.
    """
    from ..par import pmap
    if not seeds:
        raise ConfigurationError("no seeds to run")
    cfg = config if config is not None else SoakConfig()

    def one_seed(seed: int, run_obs) -> SoakResult:
        return run_soak(factory, config=replace(cfg, seed=int(seed)),
                        obs=run_obs)

    return pmap(one_seed, seeds, jobs=jobs, obs=obs)


@dataclass
class CrashRecoveryReport:
    """Outcome of a kill-and-resume soak/churn run."""

    #: Result of the full (pre-crash + resumed) run.
    result: object
    #: Operations applied before the simulated crash.
    crash_after: int
    #: WAL records replayed on top of the checkpoint during recovery.
    records_replayed: int
    #: Checkpoint watermark recovery started from (0 = no checkpoint).
    checkpoint_seq: int
    #: Differences between the pre-crash state and the recovered state
    #: (:func:`repro.store.diff_placements`); empty means identical.
    diffs: List[str] = field(default_factory=list)
    #: Minimum slack of the recovered state's audit (recovery raises
    #: :class:`~repro.errors.RobustnessViolation` when it fails).
    min_slack: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.diffs

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.diffs)} state diffs"
        return (f"CrashRecoveryReport(crash_after={self.crash_after}, "
                f"checkpoint_seq={self.checkpoint_seq}, "
                f"replayed={self.records_replayed}, {status})")


def _crash_step(store_dir, crashed: OnlinePlacementAlgorithm, alive,
                obs, segment_records: int, result, crash_after: int
                ) -> Tuple[OnlinePlacementAlgorithm, CrashRecoveryReport]:
    """Drop ``crashed`` with no shutdown and bring up its successor.

    Resumes through :func:`repro.store.open_durable` (recover, adopt
    into :class:`~repro.algorithms.naive.RobustBestFit` at the recorded
    failure budget, attach), then diffs the recovered placement against
    the dropped controller's and its tenants against the workload's
    ``alive`` ones.  Tags are left out of the diff: they are
    checkpoint-durable only (see docs/durability.md); replica
    assignments, loads, and server inventory must be exact.
    """
    from ..store import diff_placements, open_durable
    resume, recovered = open_durable(
        store_dir, segment_records=segment_records, obs=obs)
    diffs = diff_placements(crashed.placement, recovered.placement,
                            compare_tags=False)
    if sorted(alive) != recovered.placement.tenant_ids:
        diffs.append(
            f"alive tenant set diverged: workload has "
            f"{len(alive)} tenants, recovered placement has "
            f"{len(recovered.placement.tenant_ids)}")
    return resume, CrashRecoveryReport(
        result=result, crash_after=crash_after,
        records_replayed=recovered.records_replayed,
        checkpoint_seq=recovered.checkpoint_seq,
        diffs=diffs, min_slack=recovered.audit.min_slack)


def run_soak_with_crash(factory: Callable[[], OnlinePlacementAlgorithm],
                        store_dir,
                        config: Optional[SoakConfig] = None,
                        crash_after: Optional[int] = None,
                        checkpoint_every: Optional[int] = None,
                        obs=None,
                        segment_records: int = 64) -> CrashRecoveryReport:
    """Soak run with a simulated controller crash and recovery.

    Runs ``crash_after`` operations (default: half the configured
    stream) with a :class:`~repro.store.DurableStore` under
    ``store_dir``, drops the controller without any shutdown, recovers
    from checkpoint + WAL tail, verifies the recovered state is
    replica-for-replica identical to the pre-crash placement and
    audit-clean, then *resumes* the remaining operations on the
    recovered state and finishes the run normally.

    The resumed controller is what :func:`repro.store.open_durable`
    builds: :class:`~repro.algorithms.naive.RobustBestFit` at the same
    gamma and failure budget.  ``store_dir`` must be empty or new: a
    directory that already holds a history is refused with
    :class:`~repro.errors.ConfigurationError` before anything is
    logged.
    """
    from ..store import DurableStore
    cfg = config if config is not None else SoakConfig()
    if crash_after is None:
        crash_after = cfg.operations // 2
    if not (0 < crash_after <= cfg.operations):
        raise ConfigurationError(
            f"crash_after must be in [1, {cfg.operations}], "
            f"got {crash_after}")
    rng = np.random.default_rng(cfg.seed)
    algorithm = factory()
    if obs is not None:
        algorithm.attach_obs(obs)
    store = DurableStore(store_dir, segment_records=segment_records,
                         obs=obs)
    algorithm.attach_store(store)
    result = SoakResult(algorithm=algorithm.name)
    driver = _SoakDriver(algorithm, cfg, rng, result, obs,
                         checkpoint_every=checkpoint_every)
    for op_index in range(crash_after):
        driver.step(op_index)

    # Simulated crash: the controller objects are dropped with no
    # shutdown — no close(), no final checkpoint.  Under the WAL's
    # default "always" fsync policy every committed record is already
    # durable, so nothing the stream applied is lost.
    resume, report = _crash_step(store_dir, algorithm, driver.alive,
                                 obs, segment_records, result,
                                 crash_after)
    resumed_driver = _SoakDriver(resume, cfg, rng, result, obs,
                                 checkpoint_every=checkpoint_every,
                                 alive=driver.alive,
                                 next_id=driver.next_id)
    for op_index in range(crash_after, cfg.operations):
        resumed_driver.step(op_index)
    resumed_driver.finish()
    resume.store.close()
    return report
