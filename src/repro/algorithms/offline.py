"""Offline heuristic for the robust tenant placement problem.

The online algorithms never see the whole input;
:class:`OfflineFirstFitDecreasing` does — the classic offline heuristic
(sort by load descending, then robust First Fit), a strong practical
yardstick for what advance knowledge of the input buys.  It is
:class:`~repro.algorithms.naive.RobustFirstFit` over the sorted input,
so "robust" means precisely the paper's Section II condition.

The exact optimum lives in :mod:`repro.analysis.optimum`, whose
branch-and-bound seeds its incumbent from this heuristic.
"""

from __future__ import annotations

from typing import Iterable

from ..core.placement import PlacementState
from ..core.tenant import Tenant
from .base import register
from .naive import RobustFirstFit


@register
class OfflineFirstFitDecreasing(RobustFirstFit):
    """Offline heuristic: sort tenants by load descending, robust First
    Fit per replica.

    Not an online algorithm — :meth:`consolidate` sorts its input before
    placing.  Calling :meth:`place` directly places in the given order
    (useful once the input is pre-sorted).
    """

    name = "offline-ffd"

    def consolidate(self, tenants: Iterable[Tenant]) -> PlacementState:
        ordered = sorted(tenants, key=lambda t: -t.load)
        return super().consolidate(ordered)
