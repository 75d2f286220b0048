"""Multi-tenancy as a framework plane (DESIGN §10, §16): everything
``enable_multi_tenancy`` wires into the write and read paths."""

from __future__ import annotations

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane, query_frontend
from repro.exporters.tenancy_exporter import TenancyExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.tenancy.admission import AdmissionController
from repro.tenancy.limits import LimitsRegistry
from repro.tenancy.scheduler import QueryScheduler


class TenancyPlane(Plane):
    name = "tenancy"
    flag = "enable_multi_tenancy"
    components = ("limits", "admission", "frontend", "scheduler", "tenancy_exporter")
    scrape_targets = (("tenancy", "tenancy-exporter:9104", "tenancy_exporter"),)

    def validate(self, cfg):
        if not cfg.default_tenant:
            raise ValidationError("default_tenant must be non-empty")
        if cfg.query_max_concurrency < 1:
            raise ValidationError("query_max_concurrency must be >= 1")
        if cfg.tenant_shard_size < 0:
            raise ValidationError("tenant_shard_size must be >= 0")
        if (
            cfg.enable_ingest_ring
            and 0 < cfg.tenant_shard_size < cfg.ring_replication
        ):
            raise ValidationError(
                "tenant_shard_size must be 0 (disabled) or >= "
                "ring_replication"
            )

    def build_stores(self, fw):
        cfg = fw.config
        fw.limits = LimitsRegistry(
            cfg.tenant_default_limits, cfg.tenant_overrides
        )
        fw.admission = AdmissionController(
            fw.limits,
            fw.clock,
            default_tenant=cfg.default_tenant,
            tracer=fw.tracer,
        )

    def build_query(self, fw):
        fw.scheduler = QueryScheduler(
            query_frontend(fw),
            fw.clock,
            registry=fw.limits,
            max_concurrency=fw.config.query_max_concurrency,
            tracer=fw.tracer,
        )
        fw.tenancy_exporter = TenancyExporter(
            fw.admission, fw.scheduler, fw.broker
        )
        fw.faults.attach_tenancy(fw.warehouse, fw.scheduler)

    def install_rules(self, fw):
        fw.vmalert.add_rule(
            RuleSpec(
                name="TenantRateLimited",
                expr="tenant_ingest_discarded_recent > 0",
                for_=fw.config.rule_for,
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
