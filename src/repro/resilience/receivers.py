"""Resilient receiver wrappers: retrying, idempotent, and flaky-for-test.

The delivery chain the framework assembles in reliable mode is

    Alertmanager → RetryingReceiver → FlakyReceiver → IdempotentReceiver
                → TracingReceiver → Slack / ServiceNow

reading outward-in: the retrying layer owns the journal, backoff timers
and circuit breaker; the flaky layer is the chaos hook (seeded outage
windows, or forced down by a ``RECEIVER_OUTAGE`` fault); the idempotent
layer drops redeliveries of an already-delivered idempotency key so an
*ambiguous* failure (delivered, then reported failed) never duplicates a
Slack post or ServiceNow incident.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.common.errors import DeliveryError, ValidationError
from repro.common.simclock import SimClock
from repro.alerting.receivers import Notification, Receiver
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.journal import (
    JournalEntry,
    NotificationJournal,
    NotificationState,
)
from repro.tempo.model import SpanStatus
from repro.tempo.tracer import Tracer


class FlakyReceiver:
    """Test double injecting receiver outages, deterministically.

    The receiver is *down* while the simulated clock sits inside any of
    its outage windows, or while :meth:`set_down` has forced it down (the
    ``RECEIVER_OUTAGE`` fault hook).  A down receiver raises
    :class:`DeliveryError`; with ``ambiguous=True`` it first delivers to
    the inner receiver and *then* raises — the at-least-once duplicate
    source idempotency keys exist to absorb.
    """

    def __init__(
        self,
        inner: Receiver,
        clock: SimClock,
        outages: Sequence[tuple[int, int]] = (),
        ambiguous: bool = False,
    ) -> None:
        for start, end in outages:
            if end <= start:
                raise ValidationError("outage window must end after it starts")
        self.name = inner.name
        self._inner = inner
        self._clock = clock
        self.outages = tuple(sorted(outages))
        self.ambiguous = ambiguous
        self._forced_down = False
        self.attempts = 0
        self.failures = 0
        self.delivered = 0

    @classmethod
    def seeded(
        cls,
        inner: Receiver,
        clock: SimClock,
        seed: int,
        outage_count: int = 3,
        horizon_ns: int = 3_600_000_000_000,
        mean_outage_ns: int = 300_000_000_000,
        ambiguous: bool = False,
    ) -> "FlakyReceiver":
        """Generate ``outage_count`` reproducible windows after now."""
        if outage_count < 1:
            raise ValidationError("need at least one outage window")
        rng = random.Random(seed)
        base = clock.now_ns
        windows = []
        for _ in range(outage_count):
            start = base + int(rng.random() * horizon_ns)
            duration = max(1, int(rng.expovariate(1.0 / mean_outage_ns)))
            windows.append((start, start + duration))
        return cls(inner, clock, windows, ambiguous=ambiguous)

    def set_down(self, down: bool) -> None:
        """Force the receiver down/up regardless of windows (fault hook)."""
        self._forced_down = down

    def is_down(self, now_ns: int | None = None) -> bool:
        if self._forced_down:
            return True
        now = self._clock.now_ns if now_ns is None else now_ns
        return any(start <= now < end for start, end in self.outages)

    def notify(self, notification: Notification) -> None:
        self.attempts += 1
        if self.is_down():
            if self.ambiguous:
                # The delivery actually lands but the ack is lost.
                self._inner.notify(notification)
            self.failures += 1
            raise DeliveryError(f"receiver {self.name!r} is down")
        self._inner.notify(notification)
        self.delivered += 1


class IdempotentReceiver:
    """Drops redeliveries of an already-delivered idempotency key."""

    def __init__(self, inner: Receiver) -> None:
        self.name = inner.name
        self._inner = inner
        self._delivered_keys: set[str] = set()
        self.duplicates_dropped = 0

    def notify(self, notification: Notification) -> None:
        key = notification.idempotency_key
        if key is not None and key in self._delivered_keys:
            self.duplicates_dropped += 1
            return
        self._inner.notify(notification)
        if key is not None:
            # Registered only after the inner notify returned, so a real
            # (non-ambiguous) failure stays retryable.
            self._delivered_keys.add(key)


class RetryingReceiver:
    """Journal-backed at-least-once delivery with backoff and breaker.

    ``notify`` never raises: the notification is journaled, then
    attempted; failures schedule a retry on the simulated clock per the
    backoff policy.  While the circuit breaker is open, attempts are
    deferred until its reset timeout instead of burning the inner
    receiver.  ``max_attempts=None`` retries until delivered — the
    framework default, since a lost alert is the one unacceptable
    outcome; a finite budget dead-letters the entry and reports it via
    ``on_dead_letter``.
    """

    def __init__(
        self,
        inner: Receiver,
        clock: SimClock,
        policy: BackoffPolicy,
        journal: NotificationJournal,
        breaker: CircuitBreaker | None = None,
        max_attempts: int | None = None,
        on_dead_letter: Callable[[JournalEntry], None] | None = None,
        *,
        tracer: Tracer,
    ) -> None:
        if max_attempts is not None and max_attempts < 1:
            raise ValidationError("max_attempts must be positive or None")
        self.name = inner.name
        self._inner = inner
        self._clock = clock
        self._policy = policy
        self._journal = journal
        self._breaker = breaker
        self._max_attempts = max_attempts
        self._on_dead_letter = on_dead_letter
        self._tracer = tracer
        self.attempts_total = 0
        self.retries_scheduled = 0
        self.delivered_total = 0
        self.dead_lettered_total = 0
        self.breaker_deferrals = 0

    @property
    def breaker(self) -> CircuitBreaker | None:
        return self._breaker

    @property
    def journal(self) -> NotificationJournal:
        return self._journal

    def notify(self, notification: Notification) -> None:
        entry = self._journal.append(self.name, notification)
        self._attempt(entry)

    def pending(self) -> list[JournalEntry]:
        return self._journal.pending(self.name)

    # ------------------------------------------------------------------
    # Delivery machinery
    # ------------------------------------------------------------------
    def _attempt(self, entry: JournalEntry) -> None:
        if entry.state is not NotificationState.PENDING:
            return  # delivered or dead-lettered while a retry was queued
        if self._breaker is not None and not self._breaker.allow():
            # Circuit open: wait out the breaker (or one backoff step in
            # the half-open race) rather than hammering the receiver.
            self.breaker_deferrals += 1
            delay = self._breaker.retry_after_ns() or self._policy.delay_ns(
                entry.attempts
            )
            self._schedule(entry, delay)
            return
        self.attempts_total += 1
        try:
            self._inner.notify(entry.notification)
        except DeliveryError as err:
            self._journal.record_attempt(entry, str(err))
            if self._breaker is not None:
                self._breaker.record_failure()
            self._trace_attempt(entry, ok=False)
            if (
                self._max_attempts is not None
                and entry.attempts >= self._max_attempts
            ):
                self._journal.mark_failed(entry, str(err))
                self.dead_lettered_total += 1
                if self._on_dead_letter is not None:
                    self._on_dead_letter(entry)
                return
            self._schedule(entry, self._policy.delay_ns(entry.attempts - 1))
            return
        self._journal.record_attempt(entry)
        self._journal.mark_delivered(entry)
        self.delivered_total += 1
        if self._breaker is not None:
            self._breaker.record_success()
        self._trace_attempt(entry, ok=True)

    def _schedule(self, entry: JournalEntry, delay_ns: int) -> None:
        self.retries_scheduled += 1
        self._clock.call_later(max(1, delay_ns), lambda: self._attempt(entry))

    def _trace_attempt(self, entry: JournalEntry, ok: bool) -> None:
        self._tracer.record(
            self.name,
            "delivery_attempt",
            start_ns=entry.enqueued_ns if entry.attempts <= 1 else None,
            attributes={
                "key": entry.key,
                "attempt": max(1, entry.attempts),
                "outcome": "delivered" if ok else "failed",
            },
            status=SpanStatus.OK if ok else SpanStatus.ERROR,
        )
