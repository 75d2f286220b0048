"""Multi-tenancy as a framework plane (DESIGN §10, §16): everything
``enable_multi_tenancy`` wires into the write and read paths."""

from __future__ import annotations

from repro.alerting.rules import RULE_FOR, RuleSpec
from repro.cluster.faults import FaultKind
from repro.common.errors import CapacityError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import seconds
from repro.core.faults import push_lines
from repro.core.plane import Plane
from repro.exporters.tenancy_exporter import TenancyExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.loki.frontend import QueryFrontend
from repro.ring.distributor import REPLICATION_FACTOR
from repro.tenancy.admission import AdmissionController
from repro.tenancy.limits import LimitsRegistry
from repro.tenancy.scheduler import QueryScheduler


def register_faults(injector, warehouse, scheduler):
    clock = injector.clock

    def noisy_neighbor(fault):
        """A tenant (the target) goes rogue: every tick, one oversized
        push and ``queries_per_tick`` wide range queries under its id,
        until the fault ends.  Typed 429s from admission and the
        scheduler are the *expected* outcome — counted, never raised."""
        tenant, detail = fault.target, fault.detail
        lines = [
            f"noise burst line {i}"
            for i in range(int(detail.get("lines_per_tick", 5_000)))
        ]
        queries = int(detail.get("queries_per_tick", 0))
        query = str(detail.get("query", '{app="noisy-app"}'))
        for counter in (
            "pushes_attempted", "pushes_rejected", "entries_accepted",
            "queries_submitted", "queries_refused",
        ):
            detail.setdefault(counter, 0)
        labels = LabelSet({"app": "noisy-app", "tenant_source": tenant})

        def flood():
            now = clock.now_ns
            detail["pushes_attempted"] += 1
            accepted = push_lines(warehouse, labels, now, lines, tenant)
            if accepted is None:
                detail["pushes_rejected"] += 1
            else:
                detail["entries_accepted"] += accepted
            for _ in range(queries):
                detail["queries_submitted"] += 1
                try:
                    scheduler.submit(
                        tenant, query, now - seconds(3600), now, seconds(60)
                    )
                except CapacityError:
                    detail["queries_refused"] += 1

        interval = int(detail.get("interval_ns", seconds(1)))
        return clock.every(interval, flood).cancel

    injector.register(FaultKind.NOISY_NEIGHBOR, noisy_neighbor)


class TenancyPlane(Plane):
    name = "tenancy"
    flag = "enable_multi_tenancy"
    components = ("limits", "admission", "frontend", "scheduler", "tenancy_exporter")
    scrape_targets = (("tenancy", "tenancy-exporter:9104", "tenancy_exporter"),)

    def validate(self, cfg):
        if cfg.tenant_shard_size < 0:
            raise ValidationError("tenant_shard_size must be >= 0")
        if (
            cfg.enable_ingest_ring
            and 0 < cfg.tenant_shard_size < REPLICATION_FACTOR
        ):
            raise ValidationError(
                "tenant_shard_size must be 0 (disabled) or >= "
                f"{REPLICATION_FACTOR}, the replication factor"
            )

    def build_stores(self, fw):
        # Every tenant inherits the generous built-in limits unless
        # overridden; untenanted pushes belong to the default tenant.
        fw.limits = LimitsRegistry(overrides=fw.config.tenant_overrides)
        fw.admission = AdmissionController(fw.limits, fw.clock, tracer=fw.tracer)

    def build_alerting(self, fw):
        # The split/cache frontend in front of whichever engine runs the
        # range queries; with queryx on, planner and cache cut a range at
        # the same aligned boundaries.
        fw.frontend = QueryFrontend(
            fw.queryx or fw.logql,
            fw.clock,
            split_ns=fw.config.queryx_split_interval_ns,
        )
        fw.scheduler = QueryScheduler(
            fw.frontend,
            fw.clock,
            registry=fw.limits,
            tracer=fw.tracer,
        )
        fw.tenancy_exporter = TenancyExporter(
            fw.admission, fw.scheduler, fw.broker
        )
        register_faults(fw.faults, fw.warehouse, fw.scheduler)

    def install_rules(self, fw):
        fw.vmalert.add_rule(
            RuleSpec(
                name="TenantRateLimited",
                expr="tenant_ingest_discarded_recent > 0",
                for_=RULE_FOR,
                labels={"severity": "warning", "category": "tenancy"},
                annotations={
                    "summary": "Tenant {{ $labels.tenant }} is being "
                    "rate-limited: {{ $value }} lines discarded since "
                    "the last scrape"
                },
            )
        )

    def dashboards(self, fw):
        rows = [
            (
                TopListPanel,
                "Ingest accepted per tenant",
                "topk(16, tenant_ingest_entries_total)",
                {"label": "tenant"},
            ),
            (
                TimeSeriesPanel,
                "Lines discarded since last scrape (alert signal)",
                "tenant_ingest_discarded_recent",
            ),
            (
                TopListPanel,
                "Active streams per tenant",
                "topk(16, tenant_active_streams)",
                {"label": "tenant"},
            ),
            (StatPanel, "Pushes rejected (429s)", "sum(tenant_pushes_rejected_total)"),
            (TimeSeriesPanel, "Query queue depth per tenant", "tenant_query_queue_depth"),
            (TimeSeriesPanel, "Query wait p95 per tenant", "tenant_query_wait_p95_seconds"),
        ]
        return [("tenants", "Tenants", rows)]

    def health(self, fw):
        counters = fw.admission.counters.values()
        return {
            "tenants": float(len(fw.admission.tenants())),
            "tenant_entries_discarded": float(
                sum(c.entries_discarded for c in counters)
            ),
            "tenant_pushes_rejected": float(sum(c.pushes_rejected for c in counters)),
            "tenant_queries_completed": float(
                sum(s.completed for s in fw.scheduler.stats.values())
            ),
        }
