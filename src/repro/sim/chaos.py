"""Chaos conformance harness: soak workload + deterministic fault schedule.

:func:`run_chaos_soak` drives the same seeded operation stream as
:func:`repro.sim.soak.run_soak` against a durable controller while a
*fault schedule* arms failpoints (:mod:`repro.faults`) at chosen
operations.  After every firing it asserts the **conformance
contract**:

1. every injected fault either surfaces as a typed
   :class:`~repro.errors.ReproError` subclass *or* leaves a placement
   that passes the full robustness audit — never a silent corruption;
2. recovery from any crash point is differential-identical to an
   uncrashed controller: the recovered placement equals either the
   pre-operation or the post-operation state (the operation is atomic
   at the WAL — committed entirely or not at all), modulo trailing
   empty servers an interrupted operation legitimately provisioned;
3. accounting closes: the registry's per-failpoint fire counts and the
   ``faults.*`` obs counters both match the schedule exactly.

Everything is reproducible from two values printed in every report:
the seed and the schedule string (``at_op:name=action[:k=v]*`` joined
by commas) — see ``docs/testing.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import faults
from ..algorithms.base import OnlinePlacementAlgorithm
from ..core.validation import audit
from ..errors import (ConfigurationError, FaultInjected, ReproError,
                      SimulatedCrash)
from .soak import SoakConfig, SoakResult, _SoakDriver

#: Failpoints the soak workload reaches on its own (the rest —
#: par/cluster seams — are exercised by dedicated conformance tests,
#: since a placement soak never forks workers or routes queries).
SOAK_FAILPOINTS: Dict[str, str] = {
    "algo.place": "raise",
    "algo.remove": "raise",
    "algo.update_load": "raise",
    "algo.feasibility": "raise",
    "store.wal.append": "raise",
    "store.wal.fsync": "raise",
    "store.wal.torn_tail": "crash",
    "store.wal.read": "corrupt",
    "store.checkpoint.write": "raise",
    "store.checkpoint.partial": "crash",
    "store.recover.replay": "raise",
}

#: Failpoints that only fire while a recovery is in progress; the
#: default schedule co-locates them with a crash event.
_RECOVERY_ONLY = ("store.wal.read", "store.recover.replay")

#: Retry ceiling for a single recovery (each armed recovery failpoint
#: consumes one attempt; anything beyond this is a real failure).
_MAX_RECOVERY_ATTEMPTS = 8


@dataclass(frozen=True)
class FaultEvent:
    """Arm one failpoint when the workload reaches ``at_op``.

    ``spec`` is the :func:`repro.faults.parse_spec` grammar
    (``name=action[:key=value]*``); the policy is armed with
    ``max_fires=1`` unless the spec says otherwise, and *stays armed*
    until it fires — an op mix that happens not to reach the seam this
    operation will reach it on a later one.
    """

    at_op: int
    spec: str

    def __post_init__(self) -> None:
        if self.at_op < 0:
            raise ConfigurationError(
                f"at_op must be >= 0, got {self.at_op}")
        faults.parse_spec(self.spec)  # validate eagerly

    @property
    def failpoint(self) -> str:
        return faults.parse_spec(self.spec)[0]

    @property
    def policy(self) -> faults.FailpointPolicy:
        return faults.parse_spec(self.spec)[1]

    def __str__(self) -> str:
        return f"{self.at_op}:{self.spec}"


def format_schedule(events) -> str:
    """Canonical schedule string (``parse_schedule`` round-trips it)."""
    return ",".join(str(event) for event in events)


def parse_schedule(text: str) -> Tuple[FaultEvent, ...]:
    """Parse ``at_op:name=action[:k=v]*`` entries separated by commas."""
    events: List[FaultEvent] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        at_op, sep, spec = chunk.partition(":")
        if not sep:
            raise ConfigurationError(
                f"bad schedule entry {chunk!r}: expected at_op:spec")
        try:
            op_index = int(at_op)
        except ValueError:
            raise ConfigurationError(
                f"bad schedule entry {chunk!r}: at_op {at_op!r} is not "
                f"an integer") from None
        events.append(FaultEvent(at_op=op_index, spec=spec))
    return tuple(sorted(events, key=lambda e: (e.at_op, e.spec)))


def default_schedule(operations: int, seed: int,
                     failpoints: Optional[Tuple[str, ...]] = None,
                     checkpoint_every: int = 25) -> Tuple[FaultEvent, ...]:
    """Spread one event per failpoint across the operation stream.

    Deterministic in ``(operations, seed, failpoints)``: the firing
    order is a seeded permutation, events land at evenly spaced
    operations, and recovery-only points ride on the first crash event
    (they can only fire while a recovery is running).  Checkpoint
    points are placed early enough that a ``checkpoint_every`` boundary
    still lies ahead of them.
    """
    names = list(failpoints if failpoints is not None
                 else sorted(SOAK_FAILPOINTS))
    for name in names:
        if name not in faults.CATALOG:
            raise ConfigurationError(
                f"unknown failpoint {name!r}; known: "
                f"{sorted(faults.CATALOG)}")
        if name not in SOAK_FAILPOINTS:
            raise ConfigurationError(
                f"failpoint {name!r} is not reachable from the soak "
                f"workload; schedulable: {sorted(SOAK_FAILPOINTS)}")
    if operations <= checkpoint_every and any(
            n.startswith("store.checkpoint.") for n in names):
        raise ConfigurationError(
            f"checkpoint failpoints need operations > checkpoint_every "
            f"({checkpoint_every}) so a checkpoint boundary exists, "
            f"got operations={operations}")
    recovery_only = [n for n in names if n in _RECOVERY_ONLY]
    names = [n for n in names if n not in _RECOVERY_ONLY]
    if recovery_only and not any(
            SOAK_FAILPOINTS[n] == "crash" for n in names):
        # Nothing crashes, so nothing recovers: give the recovery-only
        # points a crash to ride on.
        names.append("store.wal.torn_tail")
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(0xC4A05,)))
    order = [names[i] for i in rng.permutation(len(names))]
    events: List[FaultEvent] = []
    crash_op: Optional[int] = None
    slots = max(len(order), 1)
    for i, name in enumerate(order):
        at_op = (i + 1) * operations // (slots + 1)
        if name.startswith("store.checkpoint."):
            # Keep at least one checkpoint boundary ahead of the event.
            at_op = min(at_op,
                        max(0, operations - checkpoint_every - 1))
        at_op = min(at_op, operations - 1)
        events.append(FaultEvent(
            at_op=at_op, spec=f"{name}={SOAK_FAILPOINTS[name]}"))
        if SOAK_FAILPOINTS[name] == "crash" and crash_op is None:
            crash_op = at_op
    for name in recovery_only:
        events.append(FaultEvent(
            at_op=crash_op if crash_op is not None else 0,
            spec=f"{name}={SOAK_FAILPOINTS[name]}"))
    return tuple(sorted(events, key=lambda e: (e.at_op, e.spec)))


@dataclass(frozen=True)
class ChaosConfig:
    """Parameters of a chaos soak."""

    operations: int = 150
    seed: int = 0
    checkpoint_every: int = 25
    min_load: float = 0.02
    max_load: float = 0.9
    #: Explicit schedule; empty = :func:`default_schedule` over every
    #: soak-reachable failpoint.
    schedule: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.operations < 1:
            raise ConfigurationError("operations must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        for event in self.schedule:
            if event.at_op >= self.operations:
                raise ConfigurationError(
                    f"schedule event {event} is at or beyond the last "
                    f"operation ({self.operations})")


@dataclass
class ChaosReport:
    """Outcome of one chaos soak, including the conformance verdict."""

    algorithm: str
    gamma: int
    seed: int
    operations: int
    schedule: Tuple[FaultEvent, ...]
    #: Registry fire counts, per failpoint.
    fired: Dict[str, int] = field(default_factory=dict)
    #: Faults that surfaced as typed ReproError subclasses.
    typed_errors: int = 0
    #: Simulated controller crashes (recover-and-resume cycles).
    crashes: int = 0
    recoveries: int = 0
    #: Recovery attempts consumed by faults injected *into* recovery.
    recovery_retries: int = 0
    #: Conformance violations (empty == contract held).
    failures: List[str] = field(default_factory=list)
    #: Human-readable log of every surfaced fault.
    error_log: List[str] = field(default_factory=list)
    result: Optional[SoakResult] = None

    @property
    def ok(self) -> bool:
        return (not self.failures
                and (self.result is None or self.result.ok))

    @property
    def repro_line(self) -> str:
        """Command reproducing this exact run: the ``repro chaos`` CLI
        line for bestfit (the algorithm the CLI runs), else a
        ``python -c`` line building the same algorithm by name."""
        schedule = format_schedule(self.schedule)
        if self.algorithm == "bestfit":
            return (f"repro chaos --seed {self.seed} "
                    f"--ops {self.operations} "
                    f"--schedule '{schedule}' --gamma {self.gamma}")
        return ("python -c \"import tempfile; "
                "from repro.algorithms import make_algorithm; "
                "from repro.obs import MetricsRegistry; "
                "from repro.sim.chaos import ChaosConfig, "
                "parse_schedule, run_chaos_soak; "
                f"r = run_chaos_soak(lambda: make_algorithm("
                f"{self.algorithm!r}, {self.gamma}), tempfile.mkdtemp(), "
                f"ChaosConfig(operations={self.operations}, "
                f"seed={self.seed}, schedule=parse_schedule("
                f"{schedule!r})), obs=MetricsRegistry()); "
                "print(r); raise SystemExit(0 if r.ok else 1)\"")

    def __str__(self) -> str:
        status = "CONFORMANT" if self.ok else \
            f"{len(self.failures)} CONFORMANCE FAILURES"
        return (f"ChaosReport({self.algorithm}: "
                f"{sum(self.fired.values())} faults fired over "
                f"{self.operations} ops; {self.typed_errors} typed, "
                f"{self.crashes} crashes, {self.recoveries} recoveries;"
                f" {status}; reproduce: {self.repro_line})")


def _clone(placement):
    """Deep-copy a placement through the checkpoint codec (exact loads)."""
    from ..store.snapshot import _decode, _encode
    return _decode(_encode(placement), "<clone>").restore()


def _reopen_retrying(store_dir, obs, segment_records: int,
                     report: ChaosReport):
    """:func:`repro.store.open_durable`, retried through faults
    injected into recovery itself.

    Each armed recovery failpoint fires once (typed) and disarms, and
    a failed attempt closes its store; a bounded number of retries
    therefore always converges unless the store is *actually* broken,
    which is a conformance failure.
    """
    from ..store import open_durable
    last_error: Optional[ReproError] = None
    for attempt in range(1, _MAX_RECOVERY_ATTEMPTS + 1):
        try:
            reopened = open_durable(store_dir,
                                    segment_records=segment_records,
                                    obs=obs)
            report.recoveries += 1
            return reopened
        except ReproError as err:
            report.typed_errors += 1
            report.recovery_retries += 1
            report.error_log.append(
                f"recovery attempt {attempt}: "
                f"{type(err).__name__}: {err}")
            last_error = err
    report.failures.append(
        f"recovery did not converge within {_MAX_RECOVERY_ATTEMPTS} "
        f"attempts; last error: {last_error}")
    raise last_error


def run_chaos_soak(factory: Callable[[], OnlinePlacementAlgorithm],
                   store_dir,
                   config: Optional[ChaosConfig] = None,
                   obs=None,
                   segment_records: int = 64) -> ChaosReport:
    """Drive a durable soak while the fault schedule fires failpoints.

    The controller produced by ``factory`` runs the seeded operation
    stream with a :class:`~repro.store.DurableStore` under
    ``store_dir``.  Each schedule event arms its failpoint at its
    operation; the point stays armed until it fires.  Faults that
    surface as typed errors are contained in place (the placement must
    stay audit-clean); :class:`~repro.errors.SimulatedCrash` and any
    fault escaping a store seam kill the controller, which is then
    recovered from disk and resumed on a fresh
    :class:`~repro.algorithms.naive.RobustBestFit` by
    :func:`repro.store.open_durable`, the same bring-up
    :func:`repro.sim.soak.run_soak_with_crash` uses, and
    differential-checked against the pre/post operation states — so
    ``factory`` algorithms with non-reconstructible internal state
    (CUBEFIT) are supported: their run continues under bestfit after
    the first crash.
    """
    from ..store import DurableStore, diff_placements

    cfg = config if config is not None else ChaosConfig()
    schedule = cfg.schedule or default_schedule(
        cfg.operations, cfg.seed, checkpoint_every=cfg.checkpoint_every)
    events_by_op: Dict[int, List[FaultEvent]] = {}
    for event in schedule:
        events_by_op.setdefault(event.at_op, []).append(event)

    registry = faults.FAILPOINTS
    baseline = registry.fired_counts()
    registry.attach_obs(obs)

    rng = np.random.default_rng(cfg.seed)
    algorithm = factory()
    if obs is not None:
        algorithm.attach_obs(obs)
    store = DurableStore(store_dir, segment_records=segment_records,
                         obs=obs)
    algorithm.attach_store(store)
    soak_cfg = SoakConfig(operations=cfg.operations, seed=cfg.seed,
                          min_load=cfg.min_load, max_load=cfg.max_load,
                          audit_each=True)
    result = SoakResult(algorithm=algorithm.name)
    report = ChaosReport(algorithm=algorithm.name, gamma=algorithm.gamma,
                         seed=cfg.seed, operations=cfg.operations,
                         schedule=schedule, result=result)
    driver = _SoakDriver(algorithm, soak_cfg, rng, result, obs,
                         checkpoint_every=cfg.checkpoint_every)
    budget = driver.budget

    def reconcile_alive(driver, placement) -> List[int]:
        """Re-derive the workload's alive list from the authoritative
        placement after a fault interrupted an operation mid-flight
        (e.g. a remove that popped its victim but never committed).

        Also advances the driver's tenant-id counter past every placed
        tenant: a fault between ``_place`` succeeding and the wrapper
        returning leaves the tenant placed without the workload ever
        recording its id as used.
        """
        placed = set(placement.tenant_ids)
        alive = [t for t in driver.alive if t in placed]
        alive.extend(sorted(placed - set(alive)))
        if placed:
            driver.next_id = max(driver.next_id, max(placed) + 1)
        return alive

    try:
        op_index = 0
        while op_index < cfg.operations:
            for event in events_by_op.get(op_index, ()):
                registry.activate(event.failpoint, event.policy)
            armed = bool(registry.active_names())
            pre = _clone(driver.placement) if armed else None
            try:
                driver.step(op_index)
            except ReproError as err:
                # Any fault escaping a store seam means the controller
                # can no longer trust its log — treat it as a crash,
                # like SimulatedCrash itself.  So does any fault inside
                # the compound plan-and-apply ops (fail_and_recover,
                # repack): they mutate the placement move by move and
                # log only on success, so an interrupted plan leaves
                # torn in-memory state that only a restart from the
                # log can repair — wrapper ops (place/remove/resize)
                # are fault-transactional and contain in place instead.
                is_crash = isinstance(err, SimulatedCrash) or (
                    isinstance(err, FaultInjected)
                    and err.failpoint.startswith("store.")) or (
                    isinstance(err, FaultInjected)
                    and driver.last_op in ("fail_and_recover",
                                           "repack"))
                report.error_log.append(
                    f"op {op_index}: {type(err).__name__}: {err}")
                if is_crash:
                    # Controller death: recover from disk and check the
                    # crash differential — the recovered state must be
                    # the pre- or the post-operation placement (the WAL
                    # commits operations atomically), tolerating only
                    # trailing empty servers the interrupted operation
                    # provisioned.
                    report.crashes += 1
                    post = driver.placement
                    resume, recovered = _reopen_retrying(
                        store_dir, obs, segment_records, report)
                    store = resume.store
                    diffs_pre = diff_placements(
                        recovered.placement, pre, compare_tags=False,
                        ignore_provisioning=True) if pre is not None \
                        else ["no pre-op clone captured"]
                    if diffs_pre:
                        diffs_post = diff_placements(
                            recovered.placement, post,
                            compare_tags=False,
                            ignore_provisioning=True)
                        if diffs_post:
                            report.failures.append(
                                f"op {op_index}: recovered state "
                                f"matches neither pre nor post state; "
                                f"vs-pre: {diffs_pre[:3]}; vs-post: "
                                f"{diffs_post[:3]}")
                    alive = reconcile_alive(driver, recovered.placement)
                    driver = _SoakDriver(
                        resume, soak_cfg, rng, result, obs,
                        checkpoint_every=cfg.checkpoint_every,
                        alive=alive, next_id=driver.next_id)
                else:
                    # Typed error contained in place: the operation
                    # rolled back, the placement must be audit-clean.
                    report.typed_errors += 1
                    driver.alive = reconcile_alive(driver,
                                                   driver.placement)
                check = audit(driver.placement, failures=budget)
                if not check.ok:
                    report.failures.append(
                        f"op {op_index}: placement failed the "
                        f"robustness audit after a "
                        f"{type(err).__name__} "
                        f"({len(check.violations)} violations)")
            op_index += 1
        driver.finish()
    finally:
        # Disarm before closing: close() fsyncs, and a still-armed
        # (never-fired) fsync failpoint must not detonate here.
        registry.clear()
        registry.attach_obs(None)
        store.close()

    # Accounting: every scheduled event fired exactly once, and the
    # obs counters agree with the registry.
    fired_now = registry.fired_counts()
    report.fired = {
        name: fired_now.get(name, 0) - baseline.get(name, 0)
        for name in sorted({e.failpoint for e in schedule})}
    expected: Dict[str, int] = {}
    for event in schedule:
        expected[event.failpoint] = expected.get(event.failpoint, 0) + 1
    for name, want in sorted(expected.items()):
        got = report.fired.get(name, 0)
        if got != want:
            report.failures.append(
                f"failpoint {name}: scheduled {want} firing(s), "
                f"observed {got}")
        if obs is not None:
            counted = obs.counter(f"faults.{name}").value
            if counted != got:
                report.failures.append(
                    f"failpoint {name}: obs counter faults.{name}="
                    f"{counted} disagrees with registry count {got}")
    if obs is not None:
        total = obs.counter("faults.fired").value
        if total != sum(fired_now.values()) - sum(baseline.values()):
            report.failures.append(
                f"faults.fired={total} disagrees with registry total "
                f"{sum(fired_now.values()) - sum(baseline.values())}")
    return report


__all__ = [
    "ChaosConfig", "ChaosReport", "FaultEvent", "SOAK_FAILPOINTS",
    "default_schedule", "format_schedule", "parse_schedule",
    "run_chaos_soak",
]
