"""Reliable alert delivery as a framework plane (DESIGN §9, §16):
everything ``enable_reliable_delivery`` wires around the receivers.
(The consumer half — manual commits, DLQs — is the ``reliable=`` value
the framework hands its consumer pods.)"""

from __future__ import annotations

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
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


class DeliveryPlane(Plane):
    name = "delivery"
    flag = "enable_reliable_delivery"
    components = (
        "journal", "flaky_receivers", "delivery_receivers", "delivery_exporter"
    )
    scrape_targets = (("alert-delivery", "delivery-exporter:9103", "delivery_exporter"),)

    def validate(self, cfg):
        if cfg.delivery_backoff_base_ns <= 0:
            raise ValidationError("delivery backoff base must be positive")
        if cfg.delivery_backoff_cap_ns < cfg.delivery_backoff_base_ns:
            raise ValidationError("delivery backoff cap must be >= base")
        if cfg.breaker_failure_threshold < 1:
            raise ValidationError("breaker threshold must be positive")
        if cfg.max_delivery_failures < 1:
            raise ValidationError("max_delivery_failures must be positive")

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
                    base_ns=cfg.delivery_backoff_base_ns,
                    cap_ns=cfg.delivery_backoff_cap_ns,
                    jitter=cfg.delivery_backoff_jitter,
                    seed=cfg.seed + 31 + idx,
                ),
                fw.journal,
                breaker=CircuitBreaker(
                    fw.clock,
                    failure_threshold=cfg.breaker_failure_threshold,
                    reset_timeout_ns=cfg.breaker_reset_timeout_ns,
                ),
                max_attempts=cfg.delivery_max_attempts,
                tracer=fw.tracer,
            )
            fw.flaky_receivers[retrying.name] = flaky
            fw.delivery_receivers[retrying.name] = retrying
        fw.faults.attach_delivery(
            receivers=fw.flaky_receivers,
            consumers=fw.consumers,
            journal=fw.journal,
        )
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
