"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from invariant
violations detected at run time.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A parameter is outside its documented domain.

    Examples: a replication factor below 2, a class count below 1, a
    tenant load outside ``(0, 1]``.
    """


class PlacementError(ReproError):
    """A placement operation could not be carried out.

    Raised, for example, when a replica is placed twice on the same
    server, when a rollback references a replica that is not present, or
    when an algorithm produces an assignment that does not respect the
    "gamma distinct servers per tenant" rule.
    """


class CapacityError(PlacementError):
    """Placing a replica would exceed a server's unit capacity."""


class RobustnessViolation(ReproError):
    """A packing failed the failure-tolerance audit.

    The audit checks the paper's condition: for every server ``S`` and
    every set ``S*`` of at most ``gamma - 1`` other servers,
    ``|S| + sum(|S ∩ T| for T in S*) <= 1``.
    """

    def __init__(self, message: str, server_id: int | None = None,
                 failed_set: tuple[int, ...] | None = None,
                 overload: float | None = None) -> None:
        super().__init__(message)
        #: Server that would be overloaded, if known.
        self.server_id = server_id
        #: The failure set that triggers the overload, if known.
        self.failed_set = failed_set
        #: Load in excess of capacity, if known.
        self.overload = overload


class StoreError(ReproError):
    """A durable-store operation (WAL append, checkpoint, recovery)
    could not be carried out."""


class StoreCorruptionError(StoreError):
    """The on-disk WAL or checkpoint contents are not trustworthy.

    Raised when a WAL segment contains an unparseable record *before*
    the final line (a torn final line is the expected artifact of a
    crash and is tolerated), when sequence numbers have gaps or run
    backwards, or when replaying a record contradicts the placement it
    is applied to (e.g. an ``open_server`` record whose id does not
    match the next id the placement would assign).
    """


class FaultInjected(ReproError):
    """A failpoint fired with a ``raise`` policy.

    Carries the failpoint's registered name so harnesses (and the chaos
    conformance checks) can attribute the error to the exact seam that
    produced it.  Injected faults are *typed* errors by construction:
    catching :class:`ReproError` is always sufficient to contain them.
    """

    def __init__(self, message: str, failpoint: str = "") -> None:
        super().__init__(message)
        #: Registered name of the failpoint that fired.
        self.failpoint = failpoint


class SimulatedCrash(FaultInjected):
    """A failpoint simulated a process crash (kill -9 semantics).

    Unlike a plain :class:`FaultInjected`, the seam that raises this may
    deliberately leave *torn* on-disk state behind (a half-written WAL
    line, an un-renamed checkpoint temp file) — exactly what a real
    crash leaves.  Harnesses treat it as controller death: recover from
    the durable store and resume, rather than handling it in place.
    """


class ProtocolError(ReproError):
    """A serve-protocol frame could not be honoured.

    Raised (and returned as a typed error payload) by the placement
    service for malformed JSONL frames, unknown verbs, oversized
    payloads, and requests arriving after shutdown began.  The
    connection survives: a protocol error condemns the frame, never the
    session.
    """


class BackpressureError(ReproError):
    """The service's bounded admission queue rejected a request.

    Carries the server's ``retry_after`` hint (seconds); clients should
    back off at least that long before resubmitting.  This is the
    explicit-backpressure contract of ``repro serve`` — a full queue is
    a typed rejection, never a hang or a dropped connection.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        #: Seconds the client should wait before retrying.
        self.retry_after = retry_after


class ShardSaturatedError(PlacementError):
    """A fleet shard refused a placement that would exceed its budget.

    Raised by a :class:`~repro.fleet.shard.ShardController` with a
    ``max_servers`` cap when admitting the tenant would have to open
    servers beyond the cap.  The router treats it as the spillover
    signal: the tenant is offered to sibling shards in deterministic
    order before the fleet as a whole reports saturation.
    """

    def __init__(self, message: str, shard_id: int = -1) -> None:
        super().__init__(message)
        #: Shard that refused the placement.
        self.shard_id = shard_id


class ShardDownError(ReproError):
    """An operation needs a fleet shard that is currently crashed.

    New placements route around a down shard, but an operation on a
    tenant *homed* on it (remove, resize) cannot proceed until the
    shard recovers from its WAL + checkpoint.  Typed by construction:
    whole-shard failure surfaces as this error, never as a hang.
    """

    def __init__(self, message: str, shard_id: int = -1) -> None:
        super().__init__(message)
        #: Shard that is down.
        self.shard_id = shard_id


class SimulationError(ReproError):
    """The discrete-event cluster simulation reached an invalid state."""


class CalibrationError(ReproError):
    """Load-model calibration could not find a separating line."""
