"""Exception hierarchy for the reproduction stack.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch stack-wide failures with a single ``except`` clause while still
discriminating on the specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(ReproError):
    """Input failed structural or semantic validation."""


class QueryError(ReproError):
    """A LogQL/PromQL query could not be parsed or evaluated."""


class AuthError(ReproError):
    """Telemetry API authentication or authorization failure."""


class NotFoundError(ReproError):
    """A named entity (topic, stream, CI, dashboard, ...) does not exist."""


class CapacityError(ReproError):
    """A bounded component (chunk, partition, queue) refused more data."""


class StateError(ReproError):
    """Operation is invalid for the component's current lifecycle state."""


class RateLimitedError(CapacityError):
    """A tenant exceeded its ingestion rate limit (HTTP 429 analogue).

    Raised by the admission layer when a push would overdraw the
    tenant's token bucket; the whole push is rejected and counted as a
    discard, exactly as Loki's distributor answers 429.
    """

    def __init__(self, tenant: str, message: str) -> None:
        super().__init__(message)
        self.tenant = tenant


class StreamLimitError(CapacityError):
    """A tenant tried to create more active streams than its limit allows.

    The 429-style rejection Loki returns for
    ``max_global_streams_per_user``; carries the tenant so callers can
    attribute the discard without parsing the message.
    """

    def __init__(self, tenant: str, message: str) -> None:
        super().__init__(message)
        self.tenant = tenant


class QueryLimitError(CapacityError):
    """A tenant's query exceeded its limits (range too wide, too many
    series, queue full) and was refused by the scheduler."""

    def __init__(self, tenant: str, message: str) -> None:
        super().__init__(message)
        self.tenant = tenant


class DeliveryError(ReproError):
    """A receiver could not deliver a notification (outage, timeout...).

    Raising this from :meth:`Receiver.notify` is the contract that lets
    the resilience layer distinguish a retryable delivery failure from a
    programming error.
    """
