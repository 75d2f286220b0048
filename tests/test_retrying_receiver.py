"""Resilient receiver chain: retry, breaker, journal, idempotency."""

import pytest

from repro.common.errors import DeliveryError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, hours, minutes, seconds
from repro.alerting.receivers import MemoryReceiver, Notification
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.circuit import CircuitBreaker, CircuitState
from repro.resilience.journal import NotificationJournal, NotificationState
from repro.resilience.receivers import (
    FlakyReceiver,
    IdempotentReceiver,
    RetryingReceiver,
)
from tests.tracing import off_tracer


def make_notification(key: str, ts: int = 0) -> Notification:
    return Notification(
        receiver="memory",
        group_key=LabelSet({"alertname": key}),
        alerts=(),
        timestamp_ns=ts,
        idempotency_key=key,
    )


@pytest.fixture
def clock():
    return SimClock(0)


@pytest.fixture
def policy():
    return BackoffPolicy(base_ns=seconds(30), cap_ns=minutes(10), jitter=0.0)


class TestFlakyReceiver:
    def test_down_window_raises(self, clock):
        inner = MemoryReceiver()
        flaky = FlakyReceiver(
            inner, clock, outages=[(seconds(10), seconds(20))]
        )
        flaky.notify(make_notification("a"))
        clock.advance(seconds(10))
        with pytest.raises(DeliveryError):
            flaky.notify(make_notification("b"))
        clock.advance(seconds(10))
        flaky.notify(make_notification("c"))
        assert [n.idempotency_key for n in inner.notifications] == ["a", "c"]
        assert flaky.attempts == 3
        assert flaky.failures == 1
        assert flaky.delivered == 2

    def test_forced_down_overrides_windows(self, clock):
        flaky = FlakyReceiver(MemoryReceiver(), clock)
        assert not flaky.is_down()
        flaky.set_down(True)
        assert flaky.is_down()
        with pytest.raises(DeliveryError):
            flaky.notify(make_notification("a"))
        flaky.set_down(False)
        flaky.notify(make_notification("b"))

    def test_seeded_windows_deterministic(self, clock):
        a = FlakyReceiver.seeded(MemoryReceiver(), clock, seed=42)
        b = FlakyReceiver.seeded(MemoryReceiver(), clock, seed=42)
        c = FlakyReceiver.seeded(MemoryReceiver(), clock, seed=43)
        assert a.outages == b.outages
        assert a.outages != c.outages
        assert all(end > start for start, end in a.outages)

    def test_ambiguous_failure_delivers_then_raises(self, clock):
        inner = MemoryReceiver()
        flaky = FlakyReceiver(inner, clock, ambiguous=True)
        flaky.set_down(True)
        with pytest.raises(DeliveryError):
            flaky.notify(make_notification("a"))
        # The delivery landed even though the caller saw a failure.
        assert len(inner.notifications) == 1

    def test_invalid_window_rejected(self, clock):
        with pytest.raises(ValidationError):
            FlakyReceiver(MemoryReceiver(), clock, outages=[(5, 5)])


class TestIdempotentReceiver:
    def test_duplicate_key_dropped(self):
        inner = MemoryReceiver()
        idem = IdempotentReceiver(inner)
        idem.notify(make_notification("k1"))
        idem.notify(make_notification("k1"))
        idem.notify(make_notification("k2"))
        assert len(inner.notifications) == 2
        assert idem.duplicates_dropped == 1

    def test_keyless_notifications_pass_through(self):
        inner = MemoryReceiver()
        idem = IdempotentReceiver(inner)
        n = Notification("memory", LabelSet({}), (), 0)
        idem.notify(n)
        idem.notify(n)
        assert len(inner.notifications) == 2

    def test_failed_delivery_stays_retryable(self, clock):
        # The key registers only after the inner notify returns, so a
        # clean failure can be retried without being deduped away.
        inner = MemoryReceiver()
        flaky = FlakyReceiver(inner, clock)
        idem = IdempotentReceiver(flaky)
        flaky.set_down(True)
        with pytest.raises(DeliveryError):
            idem.notify(make_notification("k"))
        flaky.set_down(False)
        idem.notify(make_notification("k"))
        assert len(inner.notifications) == 1


class TestRetryingReceiver:
    def test_healthy_delivery_is_immediate(self, clock, policy):
        inner = MemoryReceiver()
        journal = NotificationJournal(clock)
        retrying = RetryingReceiver(inner, clock, policy, journal, tracer=off_tracer())
        retrying.notify(make_notification("a"))
        assert len(inner.notifications) == 1
        assert journal.stats() == {
            "enqueued": 1,
            "pending": 0,
            "delivered": 1,
            "failed": 0,
            "attempts": 1,
        }

    def test_retries_drain_after_outage(self, clock, policy):
        inner = MemoryReceiver()
        flaky = FlakyReceiver(inner, clock)
        journal = NotificationJournal(clock)
        retrying = RetryingReceiver(flaky, clock, policy, journal, tracer=off_tracer())
        flaky.set_down(True)
        for i in range(3):
            retrying.notify(make_notification(f"n{i}"))
        assert len(retrying.pending()) == 3
        assert len(inner.notifications) == 0
        flaky.set_down(False)
        clock.advance(hours(1))  # all backoff timers fire
        assert len(retrying.pending()) == 0
        assert {n.idempotency_key for n in inner.notifications} == {
            "n0",
            "n1",
            "n2",
        }
        assert retrying.retries_scheduled >= 3

    def test_notify_never_raises(self, clock, policy):
        flaky = FlakyReceiver(MemoryReceiver(), clock)
        flaky.set_down(True)
        retrying = RetryingReceiver(
            flaky, clock, policy, NotificationJournal(clock),
            tracer=off_tracer(),
        )
        retrying.notify(make_notification("a"))  # no exception

    def test_breaker_opens_and_defers(self, clock, policy):
        inner = MemoryReceiver()
        flaky = FlakyReceiver(inner, clock)
        journal = NotificationJournal(clock)
        breaker = CircuitBreaker(
            clock, failure_threshold=2, reset_timeout_ns=minutes(2)
        )
        retrying = RetryingReceiver(flaky, clock, policy, journal, breaker, tracer=off_tracer())
        flaky.set_down(True)
        for i in range(4):
            retrying.notify(make_notification(f"n{i}"))
            clock.advance(seconds(1))
        clock.advance(minutes(1))
        assert breaker.state is CircuitState.OPEN
        # While open, scheduled retries defer instead of hitting the
        # receiver: the flaky wrapper sees no new attempts.
        before = flaky.attempts
        clock.advance(seconds(30))
        assert flaky.attempts == before
        assert retrying.breaker_deferrals > 0
        # Receiver recovers; the half-open probe closes the circuit and
        # the backlog drains.
        flaky.set_down(False)
        clock.advance(hours(2))
        assert breaker.state is CircuitState.CLOSED
        assert len(retrying.pending()) == 0
        assert len(inner.notifications) == 4

    def test_dead_letter_after_max_attempts(self, clock, policy):
        flaky = FlakyReceiver(MemoryReceiver(), clock)
        flaky.set_down(True)
        journal = NotificationJournal(clock)
        dead = []
        retrying = RetryingReceiver(
            flaky,
            clock,
            policy,
            journal,
            max_attempts=3,
            on_dead_letter=dead.append,
            tracer=off_tracer(),
        )
        retrying.notify(make_notification("doomed"))
        clock.advance(hours(1))
        assert retrying.dead_lettered_total == 1
        assert [e.key for e in dead] == ["doomed"]
        entry = journal.get("doomed")
        assert entry.state is NotificationState.FAILED
        assert entry.attempts == 3
        # A timer that was already queued must not resurrect the entry.
        clock.advance(hours(1))
        assert journal.get("doomed").state is NotificationState.FAILED

    def test_ambiguous_failure_absorbed_by_idempotency(self, clock, policy):
        # Delivered-but-reported-failed: the retry redelivers with the
        # same key and the idempotent layer drops the duplicate.
        inner = MemoryReceiver()
        idem = IdempotentReceiver(inner)
        flaky = FlakyReceiver(idem, clock, ambiguous=True)
        journal = NotificationJournal(clock)
        retrying = RetryingReceiver(flaky, clock, policy, journal, tracer=off_tracer())
        flaky.set_down(True)
        retrying.notify(make_notification("once"))
        flaky.set_down(False)
        clock.advance(hours(1))
        assert journal.get("once").state is NotificationState.DELIVERED
        assert len(inner.notifications) == 1  # exactly once
        assert idem.duplicates_dropped == 1

    def test_journal_entry_latency(self, clock, policy):
        flaky = FlakyReceiver(MemoryReceiver(), clock)
        flaky.set_down(True)
        journal = NotificationJournal(clock)
        retrying = RetryingReceiver(flaky, clock, policy, journal, tracer=off_tracer())
        retrying.notify(make_notification("late"))
        clock.advance(seconds(10))
        flaky.set_down(False)
        clock.advance(minutes(5))
        latency = journal.get("late").latency_ns()
        assert latency is not None
        assert latency >= seconds(30)  # at least the first backoff step

    def test_max_attempts_validated(self, clock, policy):
        with pytest.raises(ValidationError):
            RetryingReceiver(
                MemoryReceiver(),
                clock,
                policy,
                NotificationJournal(clock),
                max_attempts=0,
                tracer=off_tracer(),
            )
