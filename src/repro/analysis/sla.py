"""SLA-adaptive replication: violation-probability curves and gamma maps.

The paper fixes one replication factor ``gamma`` for the whole fleet.
With the placement core accepting per-tenant budgets
(:class:`repro.algorithms.mixed.MixedGammaFirstFit`), the natural
question is *which* gamma each tenant actually needs — replication is
paid for in servers, so the cheapest gamma that still meets a tenant's
availability SLA is the right one.

The model: servers fail independently within a recovery window with
probability ``failure_prob``.  A tenant of load ``x`` replicated
``gamma`` ways has its load re-shared among survivors when ``k`` of its
servers fail: each of the ``gamma - k`` surviving replicas then carries
``x / (gamma - k)``, which is what the cluster simulator does when
servers actually fail.  So the tenant's SLA is violated when

* all ``gamma`` replicas are lost (``k == gamma``), or
* a surviving replica's share ``x / (gamma - k)`` exceeds the
  degradation threshold ``overload`` — the per-replica load beyond
  which the tenant's queries start missing their latency target.

``p_violate`` sums the binomial failure probabilities over the
violating ``k``.  It is monotone non-decreasing in load, but *not*
always decreasing in gamma: thin replicas help only if the survivors
can absorb the re-shared load, so an under-provisioned heavy tenant can
be worse off at gamma 2 than unreplicated (splitting doubles the
chance that *some* server fails while each survivor still overloads).
:func:`gamma_map` therefore scans the allowed gammas cheapest-first and
keeps the first that meets the target — falling back to the most
reliable choice when none does.

Everything here is closed-form and deterministic, which is what lets
the seed-stability suite pin the curves byte-for-byte
(``benchmarks/expected/sla_gamma.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from ..core.tenant import LOAD_EPS, Tenant
from ..errors import ConfigurationError

#: Per-server failure probability within one recovery window.  The
#: paper's Section V failure experiments kill ~5% of the fleet.
DEFAULT_FAILURE_PROB = 0.05

#: Per-replica load beyond which a surviving replica is considered
#: degraded.  0.75 leaves the 25% headroom the interleaving literature
#: (RFI's mu = 0.85, minus its own reserve) keeps for failover bursts.
DEFAULT_OVERLOAD = 0.75

#: Replication factors an SLA policy may choose from, cheapest first.
DEFAULT_GAMMAS: Tuple[int, ...] = (1, 2, 3)


@dataclass(frozen=True)
class SlaPolicy:
    """Parameters of the violation model and the allowed gamma menu."""

    failure_prob: float = DEFAULT_FAILURE_PROB
    overload: float = DEFAULT_OVERLOAD
    gammas: Tuple[int, ...] = DEFAULT_GAMMAS

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_prob < 1.0:
            raise ConfigurationError(
                f"failure_prob must be in [0, 1), got "
                f"{self.failure_prob!r}")
        if self.overload <= 0.0:
            raise ConfigurationError(
                f"overload must be positive, got {self.overload!r}")
        if not self.gammas:
            raise ConfigurationError("gammas must be non-empty")
        if any(g < 1 for g in self.gammas):
            raise ConfigurationError(
                f"every gamma must be >= 1, got {self.gammas}")
        if tuple(sorted(self.gammas)) != tuple(self.gammas):
            raise ConfigurationError(
                f"gammas must be sorted ascending (cheapest first), "
                f"got {self.gammas}")


DEFAULT_POLICY = SlaPolicy()


def p_violate(load: float, gamma: int,
              policy: SlaPolicy = DEFAULT_POLICY) -> float:
    """Probability that a tenant's SLA is violated in one window.

    Closed-form sum of ``Binomial(gamma, failure_prob)`` over the
    violating failure counts (total loss, or a survivor share above
    ``policy.overload``).  Monotone non-decreasing in ``load``.
    """
    if not load > 0.0:
        raise ConfigurationError(
            f"load must be positive, got {load!r}")
    if gamma < 1:
        raise ConfigurationError(f"gamma must be >= 1, got {gamma}")
    p = policy.failure_prob
    if p == 0.0:
        return 0.0
    q = 1.0 - p
    total = 0.0
    for k in range(1, gamma + 1):
        survivors = gamma - k
        if survivors == 0:
            violated = True  # every replica lost
        else:
            violated = load / survivors > policy.overload + LOAD_EPS
        if violated:
            total += comb(gamma, k) * p ** k * q ** survivors
    return total


def p_violate_curve(loads: Sequence[float], gamma: int,
                    policy: SlaPolicy = DEFAULT_POLICY) -> List[float]:
    """``p_violate`` over a grid of loads (for tables and snapshots)."""
    return [p_violate(load, gamma, policy) for load in loads]


def cheapest_gamma(load: float, target: float,
                   policy: SlaPolicy = DEFAULT_POLICY) -> int:
    """Smallest allowed gamma with ``p_violate <= target``.

    When no allowed gamma meets the target (the tenant is too heavy or
    the target too strict), returns the most *reliable* allowed choice
    — the one minimizing ``p_violate``, ties to the cheaper gamma — so
    the map always degrades to best-effort instead of failing.
    """
    if not 0.0 < target <= 1.0:
        raise ConfigurationError(
            f"SLA target must be in (0, 1], got {target!r}")
    best_gamma = None
    best_p = None
    for gamma in policy.gammas:
        p = p_violate(load, gamma, policy)
        if p <= target:
            return gamma
        if best_p is None or p < best_p - 1e-15:
            best_gamma, best_p = gamma, p
    return best_gamma


def gamma_map(tenants: Iterable[Union[Tenant, Tuple[int, float]]],
              targets: Union[float, Mapping[int, float]],
              policy: SlaPolicy = DEFAULT_POLICY) -> Dict[int, int]:
    """Per-tenant replication plan meeting each tenant's SLA cheaply.

    ``tenants`` yields :class:`~repro.core.tenant.Tenant` objects or
    ``(tenant_id, load)`` pairs; ``targets`` is one fleet-wide violation
    ceiling or a per-tenant mapping (every tenant must be covered).
    The result maps ``tenant_id`` to the gamma
    :func:`cheapest_gamma` picks, and plugs directly into
    :class:`repro.algorithms.mixed.MixedGammaFirstFit`.
    """
    plan: Dict[int, int] = {}
    for item in tenants:
        if isinstance(item, Tenant):
            tenant_id, load = item.tenant_id, item.load
        else:
            tenant_id, load = item
        if isinstance(targets, Mapping):
            try:
                target = targets[tenant_id]
            except KeyError:
                raise ConfigurationError(
                    f"no SLA target for tenant {tenant_id}") from None
        else:
            target = targets
        plan[tenant_id] = cheapest_gamma(load, target, policy)
    return plan
