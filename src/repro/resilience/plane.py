"""Reliable alert delivery as a framework plane (DESIGN §9, §16):
everything ``enable_reliable_delivery`` wires around the receivers.
(The consumer half — manual commits, DLQs — is the ``reliable=`` value
the framework hands its consumer pods.)"""

from __future__ import annotations

from repro.alerting.rules import RuleSpec
from repro.cluster.faults import FaultKind
from repro.common.errors import ValidationError
from repro.common.simclock import minutes, seconds
from repro.core.plane import Plane
from repro.exporters.delivery_exporter import DeliveryExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.journal import NotificationJournal
from repro.resilience.receivers import (
    FlakyReceiver,
    IdempotentReceiver,
    RetryingReceiver,
)


#: Retry forever (``RetryingReceiver``'s default: a lost alert is the
#: unacceptable outcome), backing off from 30 s to a 10 min ceiling.
BACKOFF_BASE_NS = seconds(30)
BACKOFF_CAP_NS = minutes(10)
#: An open breaker probes its receiver again after this long.
BREAKER_RESET_TIMEOUT_NS = minutes(2)


def register_faults(injector, receivers, consumers, journal):
    """RECEIVER_OUTAGE darkens a flaky receiver wrapper, SLOW_CONSUMER
    throttles a consumer pod; targets are their names."""

    def named(things, what, fault):
        try:
            return things[fault.target]
        except KeyError:
            raise ValidationError(f"no {what} named {fault.target!r}") from None

    def receiver_outage(fault):
        name, detail = fault.target, fault.detail
        flaky = named(receivers, "receiver", fault)
        flaky.set_down(True)
        # Ground truth: what the delivery plane owed this receiver when
        # the outage began.
        stats = journal.stats(name)
        start = detail["enqueued_at_start"] = stats["enqueued"]
        detail["delivered_at_start"] = stats["delivered"]

        def end():
            flaky.set_down(False)
            enqueued = journal.stats(name)["enqueued"]
            detail["enqueued_at_end"] = enqueued
            # Every notification enqueued during the outage (plus any
            # already pending) must eventually deliver — the zero-loss
            # contract acceptance tests assert without re-deriving.
            detail["expected_deliveries"] = enqueued
            detail["enqueued_during_outage"] = enqueued - start

        return end

    def slow_consumer(fault):
        consumer = named(consumers, "consumer", fault)
        consumer.set_throttle(int(fault.detail.get("max_per_pump", 10)))
        fault.detail["lag_at_start"] = consumer.lag()

        def end():
            consumer.set_throttle(None)
            fault.detail["lag_at_end"] = consumer.lag()

        return end

    injector.register(FaultKind.RECEIVER_OUTAGE, receiver_outage)
    injector.register(FaultKind.SLOW_CONSUMER, slow_consumer)


class DeliveryPlane(Plane):
    name = "delivery"
    flag = "enable_reliable_delivery"
    components = (
        "journal", "flaky_receivers", "delivery_receivers", "delivery_exporter"
    )
    scrape_targets = (("alert-delivery", "delivery-exporter:9103", "delivery_exporter"),)

    def wrap_receivers(self, fw, receivers):
        # Chain per receiver: Retrying(Flaky(Idempotent(real))).  The
        # flaky wrapper is the RECEIVER_OUTAGE fault hook; the idempotent
        # wrapper sits *inside* it so a redelivered notification (e.g.
        # after an ambiguous failure) is dropped by key, never duplicated.
        cfg = fw.config
        fw.journal = NotificationJournal(fw.clock)
        fw.flaky_receivers = {}
        fw.delivery_receivers = {}
        for idx, receiver in enumerate(receivers):
            flaky = FlakyReceiver(IdempotentReceiver(receiver), fw.clock)
            retrying = RetryingReceiver(
                flaky,
                fw.clock,
                BackoffPolicy(
                    base_ns=BACKOFF_BASE_NS,
                    cap_ns=BACKOFF_CAP_NS,
                    seed=cfg.seed + 31 + idx,
                ),
                fw.journal,
                breaker=CircuitBreaker(
                    fw.clock, reset_timeout_ns=BREAKER_RESET_TIMEOUT_NS
                ),
                tracer=fw.tracer,
            )
            fw.flaky_receivers[retrying.name] = flaky
            fw.delivery_receivers[retrying.name] = retrying
        register_faults(fw.faults, fw.flaky_receivers, fw.consumers, fw.journal)
        fw.delivery_exporter = DeliveryExporter(
            fw.journal, fw.delivery_receivers.values(), fw.broker
        )
        return list(fw.delivery_receivers.values())

    def install_rules(self, fw):
        fw.vmalert.add_rule(
            RuleSpec(
                name="NotificationFailures",
                expr="alert_delivery_pending > 0",
                for_="10m",
                labels={"severity": "warning", "category": "pipeline"},
                annotations={
                    "summary": "{{ $value }} notifications pending "
                    "delivery to {{ $labels.receiver }}"
                },
            )
        )

    def dashboards(self, fw):
        rows = [
            (StatPanel, "Pending notifications", "sum(alert_delivery_pending)"),
            (StatPanel, "Notifications delivered", "sum(alert_delivery_delivered_total)"),
            (TimeSeriesPanel, "Delivery retries", "alert_delivery_retries_total"),
            (
                TopListPanel,
                "Breaker state (0 closed / 2 open)",
                "topk(8, alert_delivery_breaker_state)",
                {"label": "receiver"},
            ),
            (
                StatPanel,
                "Dead-lettered notifications",
                "sum(alert_delivery_dead_lettered_total)",
            ),
            (TimeSeriesPanel, "DLQ depth", "sum(kafka_dlq_records)"),
        ]
        return [("delivery", "Alert Delivery", rows)]

    def health(self, fw):
        stats = fw.journal.stats()
        return {
            "deliveries_pending": float(stats["pending"]),
            "deliveries_delivered": float(stats["delivered"]),
            "deliveries_dead_lettered": float(stats["failed"]),
            "records_dead_lettered": float(fw.broker.records_dead_lettered),
        }
