"""The notification journal: persist-before-dispatch delivery ledger.

Alertmanager hands every outbound notification to the delivery layer,
which journals it *before* the first delivery attempt.  The journal is
the at-least-once contract for the alert tail: a notification is PENDING
until some attempt succeeds (DELIVERED) or the retry budget is exhausted
(FAILED, the notification-side dead letter).  Each entry carries an
idempotency key — retries of the same entry reuse the key, so receivers
behind an :class:`~repro.resilience.receivers.IdempotentReceiver` never
double-create ServiceNow incidents or duplicate Slack posts even when a
delivery succeeded but was reported failed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock
from repro.alerting.receivers import Notification


class NotificationState(enum.Enum):
    PENDING = "pending"
    DELIVERED = "delivered"
    FAILED = "failed"


@dataclass
class JournalEntry:
    """One journaled notification and its delivery lifecycle."""

    key: str
    receiver: str
    notification: Notification
    enqueued_ns: int
    state: NotificationState = NotificationState.PENDING
    attempts: int = 0
    delivered_ns: int | None = None
    failed_ns: int | None = None
    last_error: str = ""
    errors: list[str] = field(default_factory=list)

    def latency_ns(self) -> int | None:
        """Enqueue → delivery latency; None while not delivered."""
        if self.delivered_ns is None:
            return None
        return self.delivered_ns - self.enqueued_ns


class NotificationJournal:
    """Ledger of every notification handed to the delivery layer."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._entries: list[JournalEntry] = []
        self._by_key: dict[str, JournalEntry] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(
        self, receiver: str, notification: Notification, key: str | None = None
    ) -> JournalEntry:
        """Journal a notification before dispatch; idempotent on key."""
        if key is None:
            key = notification.idempotency_key
        if key is None:
            self._seq += 1
            key = f"{receiver}/journal-{self._seq:06d}"
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        entry = JournalEntry(
            key=key,
            receiver=receiver,
            notification=notification,
            enqueued_ns=self._clock.now_ns,
        )
        self._entries.append(entry)
        self._by_key[key] = entry
        return entry

    def record_attempt(self, entry: JournalEntry, error: str | None = None) -> None:
        entry.attempts += 1
        if error is not None:
            entry.last_error = error
            entry.errors.append(error)

    def mark_delivered(self, entry: JournalEntry) -> None:
        if entry.state is NotificationState.FAILED:
            raise ValidationError(f"entry {entry.key} already dead-lettered")
        entry.state = NotificationState.DELIVERED
        entry.delivered_ns = self._clock.now_ns

    def mark_failed(self, entry: JournalEntry, error: str) -> None:
        entry.state = NotificationState.FAILED
        entry.failed_ns = self._clock.now_ns
        entry.last_error = error

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, key: str) -> JournalEntry | None:
        return self._by_key.get(key)

    def entries(self, receiver: str | None = None) -> list[JournalEntry]:
        if receiver is None:
            return list(self._entries)
        return [e for e in self._entries if e.receiver == receiver]

    def pending(self, receiver: str | None = None) -> list[JournalEntry]:
        return [
            e
            for e in self.entries(receiver)
            if e.state is NotificationState.PENDING
        ]

    def failed(self, receiver: str | None = None) -> list[JournalEntry]:
        return [
            e
            for e in self.entries(receiver)
            if e.state is NotificationState.FAILED
        ]

    def delivered_count(self, receiver: str | None = None) -> int:
        return sum(
            1
            for e in self.entries(receiver)
            if e.state is NotificationState.DELIVERED
        )

    def latencies_ns(self, receiver: str | None = None) -> list[int]:
        """Enqueue → delivery latencies of delivered entries, in order."""
        return [
            lat
            for e in self.entries(receiver)
            if (lat := e.latency_ns()) is not None
        ]

    def stats(self, receiver: str | None = None) -> dict[str, int]:
        entries = self.entries(receiver)
        return {
            "enqueued": len(entries),
            "pending": sum(
                1 for e in entries if e.state is NotificationState.PENDING
            ),
            "delivered": sum(
                1 for e in entries if e.state is NotificationState.DELIVERED
            ),
            "failed": sum(
                1 for e in entries if e.state is NotificationState.FAILED
            ),
            "attempts": sum(e.attempts for e in entries),
        }
