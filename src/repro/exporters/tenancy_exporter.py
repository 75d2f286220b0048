"""Tenancy exporter: per-tenant ingest/discard/queue health for vmagent.

Isolation only works if someone can see it working: this exporter feeds
per-tenant acceptance, discards (by reason), active streams, queue depth
and wait times to the metrics plane, where the ``TenantRateLimited``
rule and the "Tenants" Grafana dashboard consume them.

``tenant_ingest_discarded_recent`` is the alerting signal: discards
since the *previous* scrape, computed from a snapshot the exporter
keeps.  A tenant being throttled right now shows a positive value; once
its producer backs off the value returns to zero and the alert
auto-resolves — no rate() support needed in the PromQL engine.

When handed the broker, the exporter also ships the per-topic
produce/consume/reject counters — the bus-level context for "is this
tenant's pipeline actually draining".
"""

from __future__ import annotations

from typing import Iterator

from repro.bus.broker import Broker
from repro.common.simclock import NANOS_PER_SECOND
from repro.exporters.deltas import RecentDelta
from repro.exporters.exporter import Exporter, Reading
from repro.tenancy.admission import AdmissionController
from repro.tenancy.scheduler import QueryScheduler

_ADMISSION = (
    ("tenant_ingest_entries_total", "counter", "Log lines accepted from the tenant."),
    ("tenant_ingest_discarded_total", "counter", "Log lines rejected, by 429 reason."),
    ("tenant_ingest_discarded_recent", "gauge",
     "Lines discarded since the previous scrape (alert signal)."),
    ("tenant_active_streams", "gauge",
     "Distinct active streams held by the tenant."),
    ("tenant_pushes_rejected_total", "counter",
     "Whole pushes refused with a typed 429."),
)
_SCHEDULER = (
    ("tenant_query_queue_depth", "gauge",
     "Queries waiting in the tenant's scheduler queue."),
    ("tenant_queries_running", "gauge",
     "Tenant queries currently holding querier slots."),
    ("tenant_queries_completed_total", "counter",
     "Tenant queries finished successfully."),
    ("tenant_queries_rejected_total", "counter",
     "Tenant queries refused by limits (range/series)."),
    ("tenant_query_wait_p95_seconds", "gauge",
     "95th percentile queue wait for the tenant's queries."),
    ("tenant_query_wait_mean_seconds", "gauge",
     "Mean queue wait for the tenant's queries."),
)
_BUS = (
    ("bus_topic_produced_total", "counter", "Records produced to the topic."),
    ("bus_topic_consumed_total", "counter",
     "Records delivered to consumers from the topic."),
    ("bus_topic_rejected_total", "counter",
     "Produce attempts refused by backpressure."),
)


def _read_admission(
    admission: AdmissionController, recent_discards: RecentDelta
) -> Iterator[Reading]:
    for tenant in admission.tenants():
        counters = admission.counters[tenant]
        labels = {"tenant": tenant}
        yield "tenant_ingest_entries_total", counters.entries_accepted, labels
        for reason, count in sorted(counters.discarded.items()):
            yield "tenant_ingest_discarded_total", count, {**labels, "reason": reason}
        recent = recent_discards.observe(tenant, counters.entries_discarded)
        yield "tenant_ingest_discarded_recent", recent, labels
        yield "tenant_active_streams", admission.active_streams(tenant), labels
        yield "tenant_pushes_rejected_total", counters.pushes_rejected, labels


def _read_scheduler(scheduler: QueryScheduler) -> Iterator[Reading]:
    for tenant in scheduler.tenants():
        stats = scheduler.stats.get(tenant)
        labels = {"tenant": tenant}
        yield "tenant_query_queue_depth", scheduler.queue_depth(tenant), labels
        yield "tenant_queries_running", scheduler.running(tenant), labels
        if stats is None:
            continue
        yield "tenant_queries_completed_total", stats.completed, labels
        yield "tenant_queries_rejected_total", stats.rejected + stats.failed, labels
        p95 = scheduler.wait_percentile_ns(tenant, 95.0) / NANOS_PER_SECOND
        yield "tenant_query_wait_p95_seconds", p95, labels
        mean = stats.mean_wait_ns / NANOS_PER_SECOND
        yield "tenant_query_wait_mean_seconds", mean, labels


def _read_bus(broker: Broker) -> Iterator[Reading]:
    for topic in broker.topics():
        stats = broker.topic_stats(topic)
        labels = {"topic": topic}
        yield "bus_topic_produced_total", stats["total_produced"], labels
        yield "bus_topic_consumed_total", stats["total_consumed"], labels
        yield "bus_topic_rejected_total", stats["backpressure_rejections"], labels


class TenancyExporter(Exporter):
    """Exports admission, scheduler and (optionally) bus counters."""

    def __init__(
        self,
        admission: AdmissionController,
        scheduler: QueryScheduler | None = None,
        broker: Broker | None = None,
    ) -> None:
        # The delta keeps tenant -> entries_discarded at the previous scrape.
        super().__init__(
            (_ADMISSION, _read_admission, admission, RecentDelta()),
            (_SCHEDULER, _read_scheduler, scheduler),
            (_BUS, _read_bus, broker),
        )
