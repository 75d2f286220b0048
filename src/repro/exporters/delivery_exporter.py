"""Alert-delivery exporter: the notification path's own health metrics.

The resilience layer guarantees at-least-once delivery, but "eventually"
is an operational quantity someone must watch: pending journal depth,
retry volume, breaker state and dead-letter counts.  This exporter feeds
them to vmagent so the ``NotificationFailures`` rule and the "Alert
Delivery" Grafana dashboard close the loop — the monitoring plane
monitoring its own alert tail.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.bus.broker import Broker, DLQ_SUFFIX
from repro.exporters.exporter import Exporter, Reading
from repro.resilience.circuit import CircuitState
from repro.resilience.journal import NotificationJournal
from repro.resilience.receivers import RetryingReceiver

#: Numeric encoding of breaker state for the gauge.
_BREAKER_STATE = {
    CircuitState.CLOSED: 0.0,
    CircuitState.HALF_OPEN: 1.0,
    CircuitState.OPEN: 2.0,
}

_RECEIVERS = (
    ("alert_delivery_enqueued_total", "counter",
     "Notifications journaled for delivery."),
    ("alert_delivery_delivered_total", "counter",
     "Notifications delivered at least once."),
    ("alert_delivery_pending", "gauge",
     "Journaled notifications not yet delivered."),
    ("alert_delivery_dead_lettered_total", "counter",
     "Notifications abandoned after exhausting the retry budget."),
    ("alert_delivery_attempts_total", "counter",
     "Delivery attempts made against the receiver."),
    ("alert_delivery_retries_total", "counter",
     "Retry timers scheduled (backoff + breaker deferrals)."),
    ("alert_delivery_breaker_state", "gauge",
     "Circuit state: 0 closed, 1 half-open, 2 open."),
    ("alert_delivery_breaker_opens_total", "counter",
     "Times the receiver's circuit opened."),
)
_DLQ = (
    ("kafka_dlq_records", "gauge", "Poison records quarantined per source topic."),
)


def _read_receivers(
    journal: NotificationJournal, receivers: list[RetryingReceiver]
) -> Iterator[Reading]:
    for receiver in receivers:
        labels = {"receiver": receiver.name}
        stats = journal.stats(receiver.name)
        yield "alert_delivery_enqueued_total", stats["enqueued"], labels
        yield "alert_delivery_delivered_total", stats["delivered"], labels
        yield "alert_delivery_pending", stats["pending"], labels
        yield "alert_delivery_dead_lettered_total", stats["failed"], labels
        yield "alert_delivery_attempts_total", receiver.attempts_total, labels
        yield "alert_delivery_retries_total", receiver.retries_scheduled, labels
        breaker = receiver.breaker
        if breaker is not None:
            state = _BREAKER_STATE[breaker.state]
            yield "alert_delivery_breaker_state", state, labels
            yield "alert_delivery_breaker_opens_total", breaker.times_opened, labels


def _read_dlq(broker: Broker) -> Iterator[Reading]:
    for topic in broker.topics():
        if topic.endswith(DLQ_SUFFIX):
            continue
        depth = broker.dlq_depth(topic)
        if depth:
            yield "kafka_dlq_records", depth, {"topic": topic}
    total = broker.records_dead_lettered
    yield "kafka_dlq_records", total, {"topic": "__total__"}


class DeliveryExporter(Exporter):
    """Exports journal, retry, breaker and DLQ state per receiver."""

    def __init__(
        self,
        journal: NotificationJournal,
        receivers: Iterable[RetryingReceiver],
        broker: Broker | None = None,
    ) -> None:
        super().__init__(
            (_RECEIVERS, _read_receivers, journal, list(receivers)),
            (_DLQ, _read_dlq, broker),
        )
