"""First Fit with per-tenant replication budgets (mixed gamma).

:func:`repro.analysis.sla.gamma_map` turns per-tenant SLA targets into a
``{tenant_id: gamma}`` plan; this module is the placement path that
consumes it.  :class:`MixedGammaFirstFit` is
:class:`~repro.algorithms.naive.RobustFirstFit` with one change: each
tenant materializes ``plan[tenant_id]`` replicas instead of the fleet
default (it overrides only ``tenant_gamma``).  The selection rule,
feasibility check, and index discipline are RobustFirstFit's own — the
regression suite pins an all-equal plan to the single-gamma path
bit-for-bit (same packing fingerprint, same observability journal).

The robustness budget is a single fleet-wide ``failures`` (default: the
largest gamma in play minus one).  Tenants with small gammas still
contribute their failover shares to every server-level check; a
gamma-1 tenant simply has no failover share (its data is gone when its
server dies — that is the availability trade the SLA model priced in,
not a capacity concern).

Not registered in the algorithm registry: the registry's contract is
``make_algorithm(name, gamma)`` with a uniform gamma, and the durable
store's WAL replays placements through
:meth:`~repro.core.placement.PlacementState.place_tenant`, which
requires exactly ``gamma`` servers per tenant — so
:meth:`MixedGammaFirstFit.attach_store` refuses rather than writing a
log that cannot be replayed.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..errors import ConfigurationError
from .naive import RobustFirstFit


class MixedGammaFirstFit(RobustFirstFit):
    """Lowest-id-feasible placement honouring a per-tenant gamma plan.

    ``plan`` maps tenant ids to replication factors; tenants not in the
    plan get the constructor ``gamma``.  ``failures`` defaults to
    ``max(plan gammas, gamma) - 1`` so the robustness audit covers the
    worst co-location any tenant in the plan can create.
    """

    name = "mixed-firstfit"

    def __init__(self, plan: Mapping[int, int], gamma: int = 2,
                 failures: Optional[int] = None,
                 capacity: float = 1.0) -> None:
        for tenant_id, g in plan.items():
            if g < 1:
                raise ConfigurationError(
                    f"plan gamma for tenant {tenant_id} must be >= 1, "
                    f"got {g}")
        if failures is None:
            failures = max([gamma, *plan.values()]) - 1
        super().__init__(gamma=gamma, failures=failures,
                         capacity=capacity)
        self.plan = dict(plan)

    def attach_store(self, store) -> None:
        if store is not None:
            raise ConfigurationError(
                "mixed-firstfit cannot attach a durable store: WAL "
                "replay places exactly gamma replicas per tenant")
        super().attach_store(store)

    def tenant_gamma(self, tenant_id: int) -> int:
        """The replication factor the plan assigns ``tenant_id``."""
        return self.plan.get(tenant_id, self.gamma)

    def describe(self) -> dict:
        info = super().describe()
        info["plan_tenants"] = len(self.plan)
        if self.plan:
            info["plan_gammas"] = sorted(set(self.plan.values()))
        return info
