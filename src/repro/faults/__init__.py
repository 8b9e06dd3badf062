"""Deterministic failpoint framework.

A *failpoint* is a named hook compiled into a code seam that can
actually fail in production — a WAL append, an fsync, a checkpoint
rename, a worker process, a feasibility probe.  Inactive failpoints are
no-ops (one module-level dict truthiness test); activating one arms a
:class:`FailpointPolicy` that decides what happens when execution next
reaches the seam:

``raise``
    Raise :class:`~repro.errors.FaultInjected` — the typed-error path.
``crash``
    Raise :class:`~repro.errors.SimulatedCrash`; crash-aware seams
    (torn WAL tail, partial checkpoint) first tear their on-disk state
    the way a real ``kill -9`` would.
``delay``
    Sleep ``seconds`` and continue (slow disk / stalled worker).
``corrupt``
    At :func:`corrupt` seams, pass the in-flight value through a
    mutator (default mutators per type produce *deterministically*
    corrupted values); a plain :func:`fire` seam treats it as a no-op.

Policies compose: ``after_hits=N`` arms the point on its N-th hit
(crash-after-N), ``max_fires=M`` disarms after M firings,
``probability=p`` fires each hit with probability ``p`` drawn from an
**explicitly seeded** RNG (``seed`` is mandatory when ``p < 1`` — there
is no nondeterministic mode).

Activation
----------
Programmatic, scoped::

    from repro import faults
    with faults.injected("store.wal.fsync", action="raise"):
        ...

or process-wide via the environment::

    REPRO_FAULTS='store.wal.append=raise,par.worker=crash:after_hits=3'

The spec grammar is ``name=action[:key=value]*`` with specs separated
by commas; :func:`parse_specs` parses it, :func:`format_spec` prints
the canonical form (used by chaos schedules and reproduction lines).

Accounting
----------
Every firing increments the registry's per-failpoint counter
(:meth:`FailpointRegistry.fired_counts`) and, when a metrics registry
is attached via :meth:`FailpointRegistry.attach_obs`, the
``faults.<name>`` and ``faults.fired`` obs counters.  The chaos
conformance harness (:mod:`repro.sim.chaos`) cross-checks all three
against its schedule.

Known failpoints live in :data:`CATALOG`; activating an unknown name
is a :class:`~repro.errors.ConfigurationError` (typos must not silently
arm nothing).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, FaultInjected, SimulatedCrash

#: Environment variable holding comma-separated failpoint specs,
#: parsed once at import.
FAULTS_ENV_VAR = "REPRO_FAULTS"

ACTIONS = ("raise", "crash", "delay", "corrupt")

#: Every failpoint compiled into the codebase: name -> seam description.
#: The chaos CI smoke asserts each of these fires at least once.
CATALOG: Dict[str, str] = {
    "algo.place": (
        "instrumented place() wrapper, before the _place hook mutates "
        "the placement"),
    "algo.remove": (
        "instrumented remove() wrapper, before the _remove hook"),
    "algo.update_load": (
        "instrumented update_load() wrapper, before the _update_load "
        "hook"),
    "algo.feasibility": (
        "robust_after_placement entry — a feasibility probe "
        "interrupted mid-search (partial placements are rolled back)"),
    "store.wal.append": (
        "WriteAheadLog.append, before any byte of the record is "
        "written — the record is never committed"),
    "store.wal.torn_tail": (
        "WriteAheadLog.append, crash after writing *half* the record "
        "line — leaves the torn tail recovery must repair"),
    "store.wal.fsync": (
        "fsync of an appended record fails after the bytes reached "
        "the OS (record durable, controller cannot confirm it)"),
    "store.wal.read": (
        "WriteAheadLog.records, corrupts one record line before "
        "parsing — surfaces as StoreCorruptionError"),
    "store.checkpoint.write": (
        "save_checkpoint, before the temp file is written"),
    "store.checkpoint.partial": (
        "save_checkpoint, crash after writing the temp file but "
        "before the atomic rename — a half-finished checkpoint"),
    "store.recover.replay": (
        "DurableStore.recover, before replaying the WAL tail onto "
        "the restored checkpoint"),
    "par.worker": (
        "pmap worker body, before running an item (worker death "
        "mid-batch; propagates through the pool)"),
    "par.absorb.drop": (
        "pmap snapshot absorption — one worker's obs snapshot is "
        "dropped instead of merged"),
    "cluster.machine.fail": (
        "ClusterExperiment.run — fail one extra live machine at the "
        "start of the measurement window"),
    "cluster.route.dead": (
        "ReplicaRouter read dispatch — route a read to a failed home "
        "instead of a live one (surfaces as SimulationError)"),
    "serve.accept": (
        "PlacementServer accept loop, after a connection is accepted "
        "but before a session starts — the connection is dropped, the "
        "server keeps serving"),
    "serve.handler": (
        "PlacementServer request handler, after a frame is parsed but "
        "before admission — raise surfaces as a typed error response; "
        "crash kills the daemon mid-traffic"),
    "serve.checkpoint_timer": (
        "PlacementServer checkpoint timer body, before the checkpoint "
        "job is enqueued — raise skips this round; crash kills the "
        "daemon with the checkpoint un-taken"),
    "fleet.route": (
        "PlacementRouter.route, before a routing decision commits — "
        "the tenant was admitted but no shard has been touched"),
    "fleet.spill": (
        "PlacementRouter spillover, before a refused tenant is "
        "offered to the first sibling shard"),
    "fleet.rebalance": (
        "cross-shard rebalancer, before a migration mutates either "
        "shard — the move is abandoned whole, never half-applied"),
}


def _default_mutator(value):
    """Deterministic corruption for common in-flight value types.

    Strings become a syntactically valid JSON record with an impossible
    sequence number (so a corrupted WAL line is *detected*, never
    silently tolerated as a torn tail); numbers are perturbed, dicts
    lose a key, lists/tuples lose their tail, bytes are bit-flipped.
    """
    if isinstance(value, str):
        return '{"data": {}, "op": "~corrupt~", "seq": -1}'
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return -value - 1
    if isinstance(value, float):
        return value * 2.0 + 1.0
    if isinstance(value, bytes):
        return bytes(b ^ 0xFF for b in value)
    if isinstance(value, dict):
        if not value:
            return {"~corrupt~": True}
        clipped = dict(value)
        clipped.pop(sorted(clipped, key=repr)[0])
        return clipped
    if isinstance(value, (list, tuple)):
        return type(value)(value[: len(value) // 2])
    return None


@dataclass(frozen=True)
class FailpointPolicy:
    """What happens when an armed failpoint is reached.

    ``after_hits`` is 1-based: the default 1 fires on the very first
    hit; ``after_hits=3`` lets two hits pass and fires on the third
    (crash-after-N-hits).  ``max_fires`` disarms the point after that
    many firings (``None`` = stay armed).  ``probability < 1`` requires
    an explicit ``seed``; each *eligible* hit then fires with that
    probability, drawn from a private ``numpy`` generator, so a given
    ``(policy, hit sequence)`` always fires at the same hits.
    """

    action: str = "raise"
    after_hits: int = 1
    max_fires: Optional[int] = 1
    probability: float = 1.0
    seed: Optional[int] = None
    seconds: float = 0.0
    message: str = ""
    #: Optional corruption function for ``corrupt`` seams; defaults to
    #: the type-driven :func:`_default_mutator`.
    mutator: Optional[Callable[[object], object]] = field(
        default=None, compare=False)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"unknown failpoint action {self.action!r}; "
                f"known: {list(ACTIONS)}")
        if self.after_hits < 1:
            raise ConfigurationError(
                f"after_hits must be >= 1, got {self.after_hits}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigurationError(
                f"max_fires must be >= 1 or None, got {self.max_fires}")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {self.probability!r}")
        if self.probability < 1.0 and self.seed is None:
            raise ConfigurationError(
                "probabilistic failpoints require an explicit seed "
                "(there is no nondeterministic mode)")
        if self.seconds < 0.0:
            raise ConfigurationError(
                f"seconds must be >= 0, got {self.seconds!r}")


class _Activation:
    """Mutable per-activation state: hit/fire counters and the RNG."""

    __slots__ = ("policy", "hits", "fires", "rng")

    def __init__(self, policy: FailpointPolicy) -> None:
        self.policy = policy
        self.hits = 0
        self.fires = 0
        self.rng = (np.random.default_rng(policy.seed)
                    if policy.probability < 1.0 else None)


class FailpointRegistry:
    """Holds activations and cumulative fire counts.

    One process-wide instance lives at :data:`FAILPOINTS`; tests may
    construct private registries, but the seams compiled into the
    library only consult the global one.
    """

    def __init__(self) -> None:
        #: name -> _Activation; *emptiness* of this dict is the
        #: fast-path no-op check every seam performs.
        self._active: Dict[str, _Activation] = {}
        #: Cumulative firings per name (survives disarm/clear-counts
        #: only via :meth:`reset_counts`).
        self._fired: Dict[str, int] = {}
        self._obs = None

    def __repr__(self) -> str:
        return (f"FailpointRegistry(active={self.active_names()}, "
                f"fired={sum(self._fired.values())})")

    # -- activation ----------------------------------------------------
    def activate(self, name: str, policy: Optional[FailpointPolicy] = None,
                 **kwargs) -> None:
        """Arm ``name`` with ``policy`` (or one built from ``kwargs``).

        Re-activating replaces the previous policy and resets its hit
        and fire counters (cumulative counts are unaffected).
        """
        if name not in CATALOG:
            raise ConfigurationError(
                f"unknown failpoint {name!r}; known: {sorted(CATALOG)}")
        if policy is None:
            policy = FailpointPolicy(**kwargs)
        elif kwargs:
            raise ConfigurationError(
                "pass either a policy or keyword fields, not both")
        self._active[name] = _Activation(policy)

    def deactivate(self, name: str) -> None:
        """Disarm ``name`` (no-op if not armed)."""
        self._active.pop(name, None)

    def clear(self) -> None:
        """Disarm every failpoint."""
        self._active.clear()

    def active_names(self) -> List[str]:
        """Currently armed failpoint names, sorted."""
        return sorted(self._active)

    def is_active(self, name: str) -> bool:
        return name in self._active

    def policy(self, name: str) -> Optional[FailpointPolicy]:
        activation = self._active.get(name)
        return activation.policy if activation is not None else None

    @contextmanager
    def injected(self, name: str,
                 policy: Optional[FailpointPolicy] = None,
                 **kwargs) -> Iterator["FailpointRegistry"]:
        """Scoped activation: arm on enter, disarm on exit."""
        self.activate(name, policy, **kwargs)
        try:
            yield self
        finally:
            self.deactivate(name)

    # -- accounting ----------------------------------------------------
    def attach_obs(self, registry) -> None:
        """Mirror firings into ``faults.*`` counters of a
        :class:`~repro.obs.MetricsRegistry` (or stop with ``None``)."""
        self._obs = registry

    def fired_counts(self) -> Dict[str, int]:
        """Cumulative firings per failpoint since the last reset."""
        return dict(self._fired)

    def fired(self, name: str) -> int:
        return self._fired.get(name, 0)

    def reset_counts(self) -> None:
        self._fired.clear()

    # -- the seam-side protocol -----------------------------------------
    def _trigger(self, name: str) -> Optional[FailpointPolicy]:
        """Record a hit; return the policy iff the point fires."""
        activation = self._active.get(name)
        if activation is None:
            return None
        policy = activation.policy
        activation.hits += 1
        if activation.hits < policy.after_hits:
            return None
        if activation.rng is not None \
                and activation.rng.random() >= policy.probability:
            return None
        activation.fires += 1
        self._fired[name] = self._fired.get(name, 0) + 1
        if policy.max_fires is not None \
                and activation.fires >= policy.max_fires:
            # Disarm so the seams' emptiness fast path re-engages.
            del self._active[name]
        obs = self._obs
        if obs is not None:
            obs.counter("faults.fired").inc()
            obs.counter(f"faults.{name}").inc()
            obs.emit("fault_fired", failpoint=name, action=policy.action)
        return policy

    def fire(self, name: str) -> None:
        """Hit a plain seam: raise / crash / delay per the policy.

        ``corrupt`` policies are a no-op here — corruption only has
        meaning at :meth:`corrupt` seams.
        """
        policy = self._trigger(name)
        if policy is None:
            return
        if policy.action == "raise":
            raise FaultInjected(
                policy.message or f"failpoint {name} fired",
                failpoint=name)
        if policy.action == "crash":
            raise SimulatedCrash(
                policy.message or f"failpoint {name} simulated a crash",
                failpoint=name)
        if policy.action == "delay":
            time.sleep(policy.seconds)

    def should(self, name: str) -> bool:
        """Hit a seam whose fault behaviour lives in the seam itself
        (tear the tail, drop the snapshot, pick the dead machine).

        Returns whether the point fired; a ``delay`` policy also
        sleeps.  The seam decides what the firing *means*.
        """
        policy = self._trigger(name)
        if policy is None:
            return False
        if policy.action == "delay":
            time.sleep(policy.seconds)
        return True

    def corrupt(self, name: str, value):
        """Hit a value seam: pass ``value`` through the policy's
        mutator when the point fires, else return it unchanged."""
        policy = self._trigger(name)
        if policy is None:
            return value
        if policy.action == "raise":
            raise FaultInjected(
                policy.message or f"failpoint {name} fired",
                failpoint=name)
        if policy.action == "crash":
            raise SimulatedCrash(
                policy.message or f"failpoint {name} simulated a crash",
                failpoint=name)
        if policy.action == "delay":
            time.sleep(policy.seconds)
            return value
        mutator = policy.mutator or _default_mutator
        return mutator(value)


#: The process-wide registry all compiled-in seams consult.
FAILPOINTS = FailpointRegistry()


# ---------------------------------------------------------------------------
# Module-level fast-path helpers (what the seams actually call)
# ---------------------------------------------------------------------------
def active() -> bool:
    """Whether *any* failpoint is armed (the seams' no-op fast path)."""
    return bool(FAILPOINTS._active)


def fire(name: str) -> None:
    if FAILPOINTS._active:
        FAILPOINTS.fire(name)


def should(name: str) -> bool:
    return bool(FAILPOINTS._active) and FAILPOINTS.should(name)


def corrupt(name: str, value):
    if FAILPOINTS._active:
        return FAILPOINTS.corrupt(name, value)
    return value


def injected(name: str, policy: Optional[FailpointPolicy] = None,
             **kwargs):
    """Scoped activation on the global registry (context manager)."""
    return FAILPOINTS.injected(name, policy, **kwargs)


# ---------------------------------------------------------------------------
# Spec grammar:  name=action[:key=value]*  (comma-separated lists)
# ---------------------------------------------------------------------------
_SPEC_KEYS = {
    "after_hits": int, "after": int,
    "max_fires": int, "fires": int,
    "probability": float, "p": float,
    "seed": int,
    "seconds": float,
    "message": str,
}
_KEY_ALIASES = {"after": "after_hits", "fires": "max_fires",
                "p": "probability"}


def parse_spec(text: str) -> Tuple[str, FailpointPolicy]:
    """Parse one ``name=action[:key=value]*`` spec.

    ``max_fires`` defaults to 1 (a spec arms one firing unless it says
    otherwise; ``fires=0`` is rejected by the policy, use an explicit
    large value for unbounded experiments).
    """
    text = text.strip()
    if "=" not in text:
        raise ConfigurationError(
            f"bad failpoint spec {text!r}: expected name=action[:k=v]*")
    name, _, rest = text.partition("=")
    name = name.strip()
    if name not in CATALOG:
        raise ConfigurationError(
            f"unknown failpoint {name!r}; known: {sorted(CATALOG)}")
    parts = rest.split(":")
    action = parts[0].strip()
    fields: Dict[str, object] = {"action": action}
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigurationError(
                f"bad failpoint option {part!r} in spec {text!r}: "
                f"expected key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        caster = _SPEC_KEYS.get(key)
        if caster is None:
            raise ConfigurationError(
                f"unknown failpoint option {key!r} in spec {text!r}; "
                f"known: {sorted(set(_SPEC_KEYS) - set(_KEY_ALIASES))}")
        try:
            value = caster(raw.strip())
        except ValueError:
            raise ConfigurationError(
                f"failpoint option {key}={raw.strip()!r} in spec "
                f"{text!r} is not a valid {caster.__name__}") from None
        fields[_KEY_ALIASES.get(key, key)] = value
    fields.setdefault("max_fires", 1)
    return name, FailpointPolicy(**fields)


def parse_specs(text: str) -> List[Tuple[str, FailpointPolicy]]:
    """Parse a comma-separated list of specs (the env-var format)."""
    parsed: List[Tuple[str, FailpointPolicy]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            parsed.append(parse_spec(chunk))
    return parsed


def format_spec(name: str, policy: FailpointPolicy) -> str:
    """Canonical spec string; ``parse_spec`` round-trips it."""
    default = FailpointPolicy(action=policy.action)
    parts = [f"{name}={policy.action}"]
    if policy.after_hits != default.after_hits:
        parts.append(f"after_hits={policy.after_hits}")
    if policy.max_fires != 1:
        parts.append(f"max_fires={policy.max_fires}")
    if policy.probability != default.probability:
        parts.append(f"probability={policy.probability}")
        parts.append(f"seed={policy.seed}")
    if policy.seconds != default.seconds:
        parts.append(f"seconds={policy.seconds}")
    if policy.message:
        parts.append(f"message={policy.message}")
    return ":".join(parts)


def activate_from_env(registry: Optional[FailpointRegistry] = None,
                      environ=None) -> List[str]:
    """Arm failpoints from :data:`FAULTS_ENV_VAR`; returns armed names.

    Called once at import; exposed for tests and long-lived processes
    that mutate their environment.
    """
    registry = registry if registry is not None else FAILPOINTS
    environ = environ if environ is not None else os.environ
    text = environ.get(FAULTS_ENV_VAR, "")
    armed: List[str] = []
    for name, policy in parse_specs(text):
        registry.activate(name, policy)
        armed.append(name)
    return armed


activate_from_env()


__all__ = [
    "ACTIONS", "CATALOG", "FAULTS_ENV_VAR", "FAILPOINTS",
    "FailpointPolicy", "FailpointRegistry",
    "active", "activate_from_env", "corrupt", "fire", "format_spec",
    "injected", "parse_spec", "parse_specs", "should",
]
