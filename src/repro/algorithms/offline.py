"""Offline heuristic for the robust tenant placement problem.

The online algorithms never see the whole input;
:class:`OfflineFirstFitDecreasing` does — the classic offline heuristic
(sort by load descending, then robust First Fit), a strong practical
yardstick for what advance knowledge of the input buys.  It uses the
same exact shared-load feasibility the online algorithms use, so
"robust" means precisely the paper's Section II condition.

The exact optimum lives in :mod:`repro.analysis.optimum`, whose
branch-and-bound seeds its incumbent from this heuristic.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..core.placement import PlacementState
from ..core.tenant import Tenant
from .base import (OnlinePlacementAlgorithm, ServerIndex, register,
                   robust_after_placement)


@register
class OfflineFirstFitDecreasing(OnlinePlacementAlgorithm):
    """Offline heuristic: sort tenants by load descending, robust First
    Fit per replica.

    Not an online algorithm — :meth:`consolidate` sorts its input before
    placing.  Calling :meth:`place` directly places in the given order
    (useful once the input is pre-sorted).
    """

    name = "offline-ffd"

    def __init__(self, gamma: int = 2, failures: Optional[int] = None,
                 capacity: float = 1.0) -> None:
        super().__init__(gamma=gamma, capacity=capacity)
        self.failures = gamma - 1 if failures is None else failures
        self._index = ServerIndex(self.placement, failures=self.failures)

    @property
    def guaranteed_failures(self) -> int:
        return self.failures

    def consolidate(self, tenants: Iterable[Tenant]) -> PlacementState:
        ordered = sorted(tenants, key=lambda t: -t.load)
        return super().consolidate(ordered)

    def _place(self, tenant: Tenant) -> Tuple[int, ...]:
        chosen: List[int] = []
        for replica in tenant.replicas(self.gamma):
            future = self.gamma - len(chosen) - 1
            target = None
            for sid in self._index.candidates_by_id(
                    min_avail=replica.load, exclude=chosen):
                if robust_after_placement(self.placement, sid,
                                          replica.load, chosen,
                                          failures=self.failures,
                                          future_siblings=future,
                                          obs=self._obs):
                    target = sid
                    break
            if target is None:
                server = self.placement.open_server()
                self._index.track(server.server_id)
                target = server.server_id
            self.placement.place(replica, target)
            chosen.append(target)
        self._index.refresh(chosen)
        return tuple(chosen)
