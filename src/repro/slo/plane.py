"""Service-level objectives as a framework plane (DESIGN §15, §16):
everything ``enable_slo`` wires on top of the finished pipeline."""

from __future__ import annotations

from repro.alerting.alertmanager import Route
from repro.cluster.faults import FaultKind
from repro.common.errors import ValidationError
from repro.common.labels import Matcher, MatchOp
from repro.common.simclock import Job, minutes, seconds
from repro.core.plane import Plane
from repro.exporters.slo_exporter import SloExporter
from repro.grafana.panels import (
    HeatmapPanel,
    StatPanel,
    TimeSeriesPanel,
    TopListPanel,
)
from repro.slo.burnrate import DEFAULT_BURN_WINDOWS, burn_metric_name
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

#: A novel pattern detected within this bound counts as "fresh".
PATTERN_FRESHNESS_BOUND_NS = minutes(2)


def register_faults(injector, manager):
    def burn_injection(fault):
        """Burn a chosen SLO's error budget (the target is its name):
        every tick, ``events_per_tick`` synthetic SLI events of which
        ``error_rate`` are bad flow into the SLO's collector.  At 1.0 the
        SLI is a total outage; at e.g. 0.002 against a 99.9% objective it
        is the slow 2x burn only the long-window ticket tiers catch."""
        name, detail = fault.target, fault.detail
        manager.collector(name)  # fail fast on unknown SLO names
        events = int(detail.get("events_per_tick", 100))
        rate = float(detail.get("error_rate", 1.0))
        if not 0.0 < rate <= 1.0:
            raise ValidationError("error_rate must be in (0, 1]")
        if events < 1:
            raise ValidationError("events_per_tick must be >= 1")
        detail.setdefault("injected_good", 0)
        detail.setdefault("injected_bad", 0)
        # Deterministic rate without randomness: accumulate the exact
        # fractional quota and inject its integer part each tick.
        carry = 0.0

        def burn():
            nonlocal carry
            carry += events * rate
            bad = int(carry)
            carry -= bad
            manager.inject(name, events - bad, bad)
            detail["injected_good"] += events - bad
            detail["injected_bad"] += bad

        interval = int(detail.get("interval_ns", seconds(1)))
        timer = injector.clock.every(interval, burn)

        def end():
            timer.cancel()
            budget = manager.budget(name)
            detail["budget_remaining_at_end"] = budget.remaining_ratio()

        return end

    injector.register(FaultKind.BURN_INJECTION, burn_injection)


class SloPlane(Plane):
    name = "slo"
    flag = "enable_slo"
    components = ("slo_manager", "slo_exporter")
    scrape_targets = (("slo", "slo-exporter:9109", "slo_exporter"),)

    def validate(self, cfg):
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
            cluster=cfg.cluster_name,
            tracer=fw.tracer,
        )
        objectives = {**DEFAULT_SLO_OBJECTIVES, **cfg.slo_objectives}

        def _slo(name: str, description: str) -> SLO:
            return SLO(
                name=name, description=description, objective=objectives[name]
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
                    fw.pattern_ruler, PATTERN_FRESHNESS_BOUND_NS
                ),
            )
        # The burn rules are added here, when the plane is built, not by
        # install_rules, so they lead vmalert's evaluation order.
        for spec in manager.rule_specs():
            fw.vmalert.add_rule(spec)
        fw.slo_exporter = SloExporter(manager)
        register_faults(fw.faults, manager)

    def routes(self, fw):
        # Severity-tiered SLO routing.  Pages (severity=critical)
        # already matched the ServiceNow route (continue=True) and
        # opened an incident; this route groups both pages and
        # slow-burn tickets per (alert, SLO) for the Slack channel —
        # tickets never reach ServiceNow at all.
        return [
            Route(
                "slack",
                matchers=(Matcher("category", MatchOp.EQ, "slo"),),
                group_by=("alertname", "slo", "cluster"),
            )
        ]

    def dashboards(self, fw):
        fastest = DEFAULT_BURN_WINDOWS[0]  # the manager's tiers
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

    def jobs(self, fw):
        return [Job("slo.tick", seconds(30), fw.slo_manager.tick)]

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
