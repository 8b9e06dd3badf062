"""Robustness audits for packings (Theorem 1).

:func:`audit` checks the paper's condition with the worst-case top-``f``
shared-load bound; it is linear in servers and is used everywhere.

For audit-after-every-arrival workloads :class:`IncrementalAuditor`
keeps the full per-server slack picture warm between calls: it drains
the placement's dirty tracker and re-evaluates only the servers a
mutation affected, so each check costs O(affected servers) instead of
O(fleet) while returning the same :class:`AuditReport` :func:`audit`
would.  Both judge a server through one per-server verdict.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import RobustnessViolation
from .placement import PlacementState
from .server import Server, UNIT_CAPACITY
from .tenant import LOAD_EPS


@dataclass
class Violation:
    """One server that would be overloaded under some failure set."""

    server_id: int
    load: float
    failover_load: float
    failed_set: Tuple[int, ...] = ()
    capacity: float = UNIT_CAPACITY

    @property
    def overload(self) -> float:
        """Load in excess of the server's capacity."""
        return self.load + self.failover_load - self.capacity


@dataclass
class AuditReport:
    """Outcome of a robustness audit."""

    failures: int
    num_servers: int
    violations: List[Violation] = field(default_factory=list)
    min_slack: float = float("inf")

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            worst = max(self.violations, key=lambda v: v.overload)
            raise RobustnessViolation(
                f"{len(self.violations)} server(s) overloaded under "
                f"{self.failures}-failure audit; worst: server "
                f"{worst.server_id} exceeds capacity by {worst.overload:.6f}",
                server_id=worst.server_id,
                failed_set=worst.failed_set,
                overload=worst.overload)

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return (f"AuditReport(failures={self.failures}, "
                f"servers={self.num_servers}, min_slack={self.min_slack:.6f},"
                f" {status})")


def _verdict(placement: PlacementState, server: Server,
             f: int) -> Tuple[float, Optional[Violation]]:
    """Slack of ``server`` under its worst ``f`` failures, and the
    violation to report if that slack is below ``-LOAD_EPS``."""
    sid = server.server_id
    failover = placement.worst_failover_load(sid, f)
    slack = server.capacity - server.load - failover
    violation = None
    if slack < -LOAD_EPS:
        partners = placement.shared_partners(sid)
        worst = tuple(sorted(partners, key=partners.get, reverse=True)[:f])
        violation = Violation(server_id=sid, load=server.load,
                              failover_load=failover, failed_set=worst,
                              capacity=server.capacity)
    return slack, violation


def audit(placement: PlacementState,
          failures: Optional[int] = None) -> AuditReport:
    """Check every server against the worst-case failover bound.

    ``failures`` defaults to ``gamma - 1``, the paper's robustness target.
    Because shared loads are non-negative, the worst failure set for a
    server is its ``failures`` largest shared partners, so this audit is
    equivalent to checking all failure sets while running in
    ``O(servers * partners)``.
    """
    f = placement.gamma - 1 if failures is None else failures
    report = AuditReport(failures=f, num_servers=placement.num_servers)
    for server in placement:
        slack, violation = _verdict(placement, server, f)
        report.min_slack = min(report.min_slack, slack)
        if violation is not None:
            report.violations.append(violation)
    if placement.num_servers == 0:
        report.min_slack = placement.capacity
    return report


class IncrementalAuditor:
    """Audit a packing in O(affected servers) per check.

    Subscribes to the placement's dirty tracker and keeps a per-server
    slack table plus the current violation set warm between calls;
    :meth:`check` re-evaluates only the servers mutated since the last
    check and returns a report equivalent to :func:`audit`'s.

    ``min_slack`` is maintained with a lazy min-heap: each refreshed
    server pushes its new slack, and stale heap heads (entries whose
    slack no longer matches the table) are popped on read.  The heap is
    rebuilt when stale entries dominate, keeping memory linear.

    Single-writer discipline: results are only meaningful if every
    mutation of the placement happens between :meth:`check` calls of
    the same auditor (the normal online-placement loop).
    """

    def __init__(self, placement: PlacementState,
                 failures: Optional[int] = None) -> None:
        self.placement = placement
        self.failures = placement.gamma - 1 if failures is None \
            else failures
        self._tracker = placement.dirty_tracker()
        self._slack: Dict[int, float] = {}
        self._violations: Dict[int, Violation] = {}
        self._heap: List[Tuple[float, int]] = []

    def _refresh_dirty(self) -> None:
        placement = self.placement
        f = self.failures
        for sid in self._tracker.drain():
            slack, violation = _verdict(placement, placement.server(sid), f)
            self._slack[sid] = slack
            heapq.heappush(self._heap, (slack, sid))
            if violation is None:
                self._violations.pop(sid, None)
            else:
                self._violations[sid] = violation
        if len(self._heap) > 4 * max(len(self._slack), 16):
            self._heap = [(slack, sid)
                          for sid, slack in self._slack.items()]
            heapq.heapify(self._heap)

    def min_slack(self) -> float:
        """Smallest per-server slack across the fleet."""
        heap, table = self._heap, self._slack
        while heap and table.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            return self.placement.capacity
        return heap[0][0]

    def check(self) -> AuditReport:
        """Re-audit the servers affected since the last check."""
        self._refresh_dirty()
        report = AuditReport(failures=self.failures,
                             num_servers=self.placement.num_servers)
        report.violations = sorted(self._violations.values(),
                                   key=lambda v: v.server_id)
        report.min_slack = self.min_slack()
        return report

    def close(self) -> None:
        """Unsubscribe from the placement's invalidation stream."""
        self._tracker.close()
