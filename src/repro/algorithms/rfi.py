"""RFI: the baseline from the RTP system (Schaffner et al., SIGMOD 2013).

Reconstructed from the paper's Section V description:

    "RFI first searches for the server that would have the least load
    left over after a tenant is placed on it, including having enough
    reserved capacity for additional load from any single failed server
    (overload capacity) and a mu value that governs how much of the first
    server's total capacity to use for interleaving.  If no such server
    is found, a new server is provisioned and the replica is placed
    there.  For the second replica, the algorithm repeats the process but
    selects a different server machine."

Concretely, per replica (in replica order):

* candidate servers are those not already hosting a replica of the
  tenant;
* feasibility is **single-failure robustness** with exact shared-load
  accounting: after the placement, the candidate and every sibling
  server must keep ``load + max_shared <= capacity``;
* the *first* replica may only fill a server up to ``mu`` of its
  capacity (interleaving headroom for other tenants' secondaries);
* among feasible servers, Best Fit: least leftover capacity, i.e. the
  fullest feasible server;
* otherwise a new server is opened.

RFI reserves for only **one** failure — the reason it violates SLAs under
two simultaneous failures in the paper's Figure 5.  That makes it
:class:`~repro.algorithms.naive.RobustBestFit` at ``failures=1`` with the
``mu`` cap on the primary replica.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.tenant import Replica
from ..errors import ConfigurationError
from .base import register
from .naive import RobustBestFit

#: Interleaving threshold recommended by the RTP paper and used in the
#: CUBEFIT paper's experiments.
DEFAULT_MU = 0.85


@register
class RFI(RobustBestFit):
    """Robust best-Fit with Interleaving, tolerant to a single failure."""

    name = "rfi"

    def __init__(self, gamma: int = 2, mu: float = DEFAULT_MU,
                 capacity: float = 1.0) -> None:
        if gamma < 2:
            raise ConfigurationError(
                f"RFI's single-failure reserve requires gamma >= 2, "
                f"got {gamma}")
        # RFI's reserve budget is one failure, regardless of gamma.
        super().__init__(gamma=gamma, failures=1, capacity=capacity)
        if not (0.0 < mu <= 1.0):
            raise ConfigurationError(
                f"mu must be in (0, 1], got {mu}")
        self.mu = mu

    def _select(self, replica: Replica, chosen: List[int],
                future: int) -> Optional[int]:
        max_level = (self.mu * self.placement.capacity - replica.load
                     if not chosen else None)
        return super()._select(replica, chosen, future, max_level)

    def describe(self) -> dict:
        info = super().describe()
        info["mu"] = self.mu
        return info
