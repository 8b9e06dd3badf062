"""Simple replica-aware packing baselines used for ablation.

These algorithms are *robust-by-check* variants of the classic online
bin-packing heuristics: each placement is admitted only if the packing
stays robust against ``failures`` simultaneous server failures under the
exact shared-load accounting (the same check CUBEFIT's first stage
uses), but the *selection rule* is the classic one:

* :class:`RobustFirstFit` — lowest-id feasible server;
* :class:`RobustNextFit` — only the most recently used servers are
  considered; otherwise open new ones;
* :class:`RobustBestFit` — fullest feasible server.

They bound how much of CUBEFIT's advantage comes from the cube structure
versus merely checking robustness.  Every algorithm that admits replica
by replica through this check is a :class:`_CheckedBaseline` subclass
that supplies only its selection rule: besides the three above,
:class:`~repro.algorithms.rfi.RFI` (Best Fit at one failure, with the
``mu`` level cap on the primary replica),
:class:`~repro.algorithms.offline.OfflineFirstFitDecreasing` (First Fit
over the input sorted by load) and
:class:`~repro.algorithms.mixed.MixedGammaFirstFit` (First Fit with a
per-tenant gamma).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..core.tenant import Replica, Tenant
from ..errors import ConfigurationError
from .base import (OnlinePlacementAlgorithm, ServerIndex, register,
                   robust_after_placement)


class _CheckedBaseline(OnlinePlacementAlgorithm):
    """Shared scaffolding: place replicas one by one with a robustness
    check; open a new server when no feasible candidate exists."""

    def __init__(self, gamma: int = 2, failures: Optional[int] = None,
                 capacity: float = 1.0) -> None:
        super().__init__(gamma=gamma, capacity=capacity)
        if failures is None:
            failures = gamma - 1
        if failures < 0:
            raise ConfigurationError(
                f"failures must be non-negative, got {failures}")
        self.failures = failures
        self._index = ServerIndex(self.placement, failures=failures)

    @property
    def guaranteed_failures(self) -> int:
        return self.failures

    def tenant_gamma(self, tenant_id: int) -> int:
        """The replication factor of ``tenant_id``: the fleet's gamma."""
        return self.gamma

    def _place(self, tenant: Tenant) -> Tuple[int, ...]:
        replicas = tenant.replicas(self.tenant_gamma(tenant.tenant_id))
        chosen: List[int] = []
        for replica in replicas:
            target = self._select(replica, chosen,
                                  len(replicas) - len(chosen) - 1)
            if target is None:
                target = self._open_server()
            self.placement.place(replica, target)
            chosen.append(target)
        self._after_tenant(chosen)
        return tuple(chosen)

    def _open_server(self) -> int:
        server = self.placement.open_server()
        self._index.track(server.server_id)
        return server.server_id

    def _feasible(self, sid: int, replica: Replica, chosen: List[int],
                  future: int) -> bool:
        return robust_after_placement(self.placement, sid, replica.load,
                                      chosen, failures=self.failures,
                                      future_siblings=future,
                                      obs=self._obs)

    def _select(self, replica: Replica, chosen: List[int],
                future: int) -> Optional[int]:
        """The server for ``replica``, or None to open one.

        ``chosen`` holds the servers of the tenant's replicas placed so
        far; ``future`` counts its replicas still unplaced after this
        one.  The check must anticipate them: they may land on fresh
        servers, whose shared-load bump no later check would guard.
        """
        raise NotImplementedError

    def _adopted(self, placement) -> None:
        # The only internal state is the candidate index, which is a
        # pure function of the placement: rebuild it over the adopted
        # state with every existing server eligible.
        self._index = ServerIndex(placement, failures=self.failures)
        for sid in placement.server_ids:
            self._index.track(sid)

    def _after_tenant(self, chosen: List[int]) -> None:
        """Hook for subclasses needing to track recency (Next Fit)."""

    def describe(self) -> dict:
        info = super().describe()
        info["failures"] = self.failures
        return info


@register
class RobustBestFit(_CheckedBaseline):
    """Fullest feasible server per replica; no interleaving threshold."""

    name = "bestfit"

    def _select(self, replica: Replica, chosen: List[int], future: int,
                max_level: Optional[float] = None) -> Optional[int]:
        return self._index.select(
            replica.load, chosen, min_avail=replica.load,
            max_level=max_level, exclude=chosen, future_siblings=future,
            obs=self._obs)


@register
class RobustFirstFit(_CheckedBaseline):
    """Lowest-id feasible server per replica."""

    name = "firstfit"

    def _select(self, replica: Replica, chosen: List[int],
                future: int) -> Optional[int]:
        for sid in self._index.candidates_by_id(min_avail=replica.load,
                                                exclude=chosen):
            if self._feasible(sid, replica, chosen, future):
                return sid
        return None


@register
class RobustNextFit(_CheckedBaseline):
    """Keeps a short window of recently used servers; replicas go to the
    first feasible one, else a new server (classic Next Fit generalized
    to replicated tenants).

    The window holds ``window`` server ids (default ``2 * gamma``) in
    most-recently-used order.
    """

    name = "nextfit"

    def __init__(self, gamma: int = 2, failures: Optional[int] = None,
                 capacity: float = 1.0, window: Optional[int] = None) -> None:
        super().__init__(gamma=gamma, failures=failures, capacity=capacity)
        self.window = window if window is not None else 2 * gamma
        if self.window < gamma:
            raise ConfigurationError(
                f"window must be >= gamma, got {self.window}")
        self._recent: Deque[int] = deque(maxlen=self.window)

    def _select(self, replica: Replica, chosen: List[int],
                future: int) -> Optional[int]:
        for sid in self._recent:
            if sid in chosen:
                continue
            if self._feasible(sid, replica, chosen, future):
                return sid
        return None

    def _after_tenant(self, chosen: List[int]) -> None:
        for sid in chosen:
            if sid in self._recent:
                self._recent.remove(sid)
            self._recent.appendleft(sid)
