"""Minimal discrete-event simulation engine.

A classic calendar-queue simulator: events are ``(time, seq, callback)``
triples in a binary heap; ``seq`` breaks ties FIFO so simultaneous events
fire in schedule order (determinism matters for reproducible latency
percentiles).  Cancellation is by token: cancelled events stay in the
heap but are skipped when popped.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Event loop with a monotonically advancing clock.

    Pass ``obs`` (a :class:`~repro.obs.MetricsRegistry`) to count
    dispatched events under ``sim.events``; the counter object is
    resolved once so the per-event cost is a single increment.
    """

    def __init__(self, obs=None) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, EventHandle,
                               Callable[[], None]]] = []
        self._seq = itertools.count()
        #: Total events dispatched (for perf reporting).
        self.events_dispatched = 0
        self._event_counter = obs.counter("sim.events") \
            if obs is not None else None

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run at absolute ``time``."""
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}")
        handle = EventHandle()
        heapq.heappush(self._heap, (time, next(self._seq), handle, callback))
        return handle

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback)

    def run_until(self, end_time: float) -> None:
        """Dispatch events up to and including ``end_time``."""
        heap = self._heap
        counter = self._event_counter
        while heap and heap[0][0] <= end_time:
            time, _seq, handle, callback = heapq.heappop(heap)
            if handle.cancelled:
                continue
            self.now = time
            self.events_dispatched += 1
            if counter is not None:
                counter.inc()
            callback()
        self.now = max(self.now, end_time)

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Dispatch until the heap drains (or ``max_events`` is hit)."""
        heap = self._heap
        counter = self._event_counter
        dispatched = 0
        while heap:
            time, _seq, handle, callback = heapq.heappop(heap)
            if handle.cancelled:
                continue
            self.now = time
            self.events_dispatched += 1
            if counter is not None:
                counter.inc()
            callback()
            dispatched += 1
            if max_events is not None and dispatched >= max_events:
                raise SimulationError(
                    f"run_all exceeded {max_events} events; likely a "
                    f"runaway event loop")

    @property
    def pending(self) -> int:
        """Events still in the heap (including cancelled ones)."""
        return len(self._heap)
