"""Service-level objectives as a framework plane (DESIGN §15, §16):
everything ``enable_slo`` wires on top of the finished pipeline."""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.labels import Matcher, MatchOp
from repro.core.plane import Plane
from repro.exporters.slo_exporter import SloExporter
from repro.grafana.panels import (
    HeatmapPanel,
    StatPanel,
    TimeSeriesPanel,
    TopListPanel,
)
from repro.slo.burnrate import burn_metric_name
from repro.slo.manager import SloManager
from repro.slo.model import SLO
from repro.slo.sources import (
    AlertDeliverySource,
    IngestAvailabilitySource,
    PatternFreshnessSource,
    QueryLatencySource,
)

#: Default objectives for the built-in SLOs; override per SLO name via
#: ``FrameworkConfig.slo_objectives``.
DEFAULT_SLO_OBJECTIVES: dict[str, float] = {
    "ingest-availability": 0.999,
    "query-latency": 0.95,
    "alert-delivery": 0.999,
    "pattern-freshness": 0.9,
}


class SloPlane(Plane):
    name = "slo"
    flag = "enable_slo"
    components = ("slo_manager", "slo_exporter")
    scrape_targets = (("slo", "slo-exporter:9109", "slo_exporter"),)

    def validate(self, cfg):
        if not cfg.slo_burn_windows:
            raise ValidationError(
                "slo_burn_windows needs at least one tier"
            )
        if cfg.slo_pattern_freshness_bound_ns <= 0:
            raise ValidationError(
                "slo_pattern_freshness_bound_ns must be positive"
            )
        for name, objective in cfg.slo_objectives.items():
            if not 0.0 < objective < 1.0:
                raise ValidationError(
                    f"slo objective for {name!r} must be in (0, 1) "
                    f"exclusive, got {objective}"
                )

    def build_alerting(self, fw):
        # Built last on the alerting plane: the SLI sources read the
        # journal/queryx/pattern counters — which SLOs exist follows from
        # which of those were built — and escalation posts to Alertmanager.
        cfg = fw.config
        manager = fw.slo_manager = SloManager(
            fw.clock,
            fw.promql,
            fw.warehouse.tsdb,
            fw.notifier("slo-manager"),
            windows=cfg.slo_burn_windows,
            cluster=cfg.cluster_name,
            tracer=fw.tracer,
        )
        objectives = {**DEFAULT_SLO_OBJECTIVES, **cfg.slo_objectives}

        def _slo(name: str, description: str) -> SLO:
            return SLO(
                name=name,
                description=description,
                objective=objectives[name],
                window=cfg.slo_window,
            )

        manager.register(
            _slo(
                "ingest-availability",
                "log entries accepted vs discarded or lost",
            ),
            IngestAvailabilitySource(
                fw.warehouse,
                admission=fw.admission,
                distributor=(
                    fw.ring.distributor if fw.ring is not None else None
                ),
            ),
        )
        if fw.queryx is not None:
            manager.register(
                _slo(
                    "query-latency",
                    "queries under the slowness threshold",
                ),
                QueryLatencySource(fw.queryx),
            )
        if fw.journal is not None:
            manager.register(
                _slo(
                    "alert-delivery",
                    "alert notifications delivered vs dead-lettered",
                ),
                AlertDeliverySource(fw.journal),
            )
        if fw.pattern_ruler is not None:
            manager.register(
                _slo(
                    "pattern-freshness",
                    "novel error templates detected within the bound",
                ),
                PatternFreshnessSource(
                    fw.pattern_ruler, cfg.slo_pattern_freshness_bound_ns
                ),
            )
        # The burn rules exist whenever the plane does — they are not
        # default rules, so install_default_rules has no say — and they
        # therefore lead vmalert's evaluation order.
        for spec in manager.rule_specs():
            fw.vmalert.add_rule(spec)
        fw.slo_exporter = SloExporter(manager)
        fw.faults.attach_slo(manager)

    def routes(self, fw):
        # Severity-tiered SLO routing.  Pages (severity=critical)
        # already matched the ServiceNow route (continue=True) and
        # opened an incident; this route groups both pages and
        # slow-burn tickets per (alert, SLO) for the Slack channel —
        # tickets never reach ServiceNow at all.
        return [
            fw.route(
                "slack",
                ("alertname", "slo", "cluster"),
                (Matcher("category", MatchOp.EQ, "slo"),),
            )
        ]

    def dashboards(self, fw):
        fastest = fw.config.slo_burn_windows[0]
        rows = [
            (
                StatPanel,
                "Lowest budget remaining",
                "slo_budget_remaining_ratio",
                {"reducer": "min"},
            ),
            (StatPanel, "Budgets exhausted", "slo_budget_exhausted"),
            (TimeSeriesPanel, "Error budget remaining", "slo_budget_remaining_ratio"),
            (
                HeatmapPanel,
                "Burn rate heatmap (slo/window)",
                "slo_burn_rate",
                {"scale_max": fastest.factor},
            ),
            (
                TopListPanel,
                f"Hottest {fastest.short} burn",
                f"topk(8, {burn_metric_name(fastest.short)})",
                {"label": "slo", "unit": "x"},
            ),
            (TimeSeriesPanel, "Bad events since last scrape", "slo_bad_events_recent"),
        ]
        return [("slo", "SLO Overview", rows)]

    def start(self, fw):
        fw.slo_manager.run_periodic(fw.config.slo_eval_interval_ns)

    def health(self, fw):
        summary = {}
        exhausted = 0.0
        for row in fw.slo_manager.status():
            name = str(row["slo"]).replace("-", "_")
            summary[f"slo_{name}_budget_remaining"] = float(
                row["budget_remaining"]
            )
            if row["state"] == "exhausted":
                exhausted += 1.0
        summary["slo_budgets_exhausted"] = exhausted
        summary["slo_recording_samples"] = float(
            fw.slo_manager.recording.samples_recorded
        )
        return summary
