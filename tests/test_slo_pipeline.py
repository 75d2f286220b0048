"""End-to-end acceptance for the SLO plane.

The deterministic pipeline the ISSUE requires: a BURN_INJECTION fault
degrades an SLI → vmagent scrapes the SLI counters → recording rules
derive per-window burn rates → the multi-window vmalert rule pages →
the critical alert routes to ServiceNow and opens an incident → the
burn stops → the alert self-resolves once the short window drains.
"""

import pytest

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.errors import ValidationError
from repro.common.simclock import minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.loki.logcli import run_logcli
from repro.loki.store import LokiStore
from repro.servicenow.alerts import SnAlertState


def make_framework(**overrides):
    cfg = FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
        enable_slo=True,
        **overrides,
    )
    fw = MonitoringFramework(cfg)
    fw.start()
    return fw


class TestWiring:
    def test_disabled_without_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLO", raising=False)
        cfg = FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1)
        )
        assert not cfg.enable_slo
        fw = MonitoringFramework(cfg)
        assert fw.slo_manager is None
        assert fw.slo_exporter is None
        assert "slo" not in fw.dashboards

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLO", "1")
        cfg = FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1)
        )
        assert cfg.enable_slo

    def test_core_slo_always_registered(self):
        fw = make_framework(
            enable_query_engine=False,
            enable_reliable_delivery=False,
            enable_pattern_mining=False,
        )
        names = {s.name for s in fw.slo_manager.slos()}
        assert "ingest-availability" in names
        # Optional planes are off, so their SLOs are absent.
        assert "query-latency" not in names

    def test_all_slos_with_all_planes(self):
        fw = make_framework(
            enable_query_engine=True,
            enable_reliable_delivery=True,
            enable_pattern_mining=True,
        )
        names = {s.name for s in fw.slo_manager.slos()}
        assert names == {
            "ingest-availability",
            "query-latency",
            "alert-delivery",
            "pattern-freshness",
        }

    def test_burn_rules_installed_in_vmalert(self):
        fw = make_framework()
        rule_names = {r.name for r in fw.vmalert.rules()}
        assert {
            "SloPageBurn_5m_1h",
            "SloPageBurn_30m_6h",
            "SloTicketBurn_2h_1d",
            "SloTicketBurn_6h_3d",
        } <= rule_names

    def test_objective_override(self):
        fw = make_framework(slo_objectives={"ingest-availability": 0.99})
        slo = next(
            s for s in fw.slo_manager.slos()
            if s.name == "ingest-availability"
        )
        assert slo.objective == pytest.approx(0.99)

    def test_bad_objective_rejected(self):
        with pytest.raises(ValidationError):
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
                enable_slo=True,
                slo_objectives={"ingest-availability": 1.5},
            )


class TestBurnToIncidentPipeline:
    def test_page_incident_and_self_resolve(self):
        fw = make_framework()
        fw.run_for(minutes(2))  # quiet baseline

        fw.faults.schedule(
            FaultKind.BURN_INJECTION,
            "ingest-availability",
            duration_ns=minutes(3),
            events_per_tick=500,
            error_rate=1.0,
        )

        # Step in eval-interval chunks, recording when the page lands.
        paged_after = None
        for step in range(1, 13):  # up to 6 minutes
            fw.run_for(seconds(30))
            active = {a.name for a in fw.alertmanager.active_alerts()}
            if "SloPageBurn_5m_1h" in active:
                paged_after = step * seconds(30)
                break
        assert paged_after is not None, "fast-burn page never fired"
        # A total outage must page well inside the short window.
        assert paged_after <= minutes(5)

        # The critical page routes to ServiceNow once the group-wait
        # interval on the servicenow route elapses.
        fw.run_for(minutes(2))
        incidents = fw.servicenow.incidents()
        assert any(
            "SloPageBurn_5m_1h" in i.short_description for i in incidents
        )
        page_incident = next(
            i for i in incidents if "SloPageBurn_5m_1h" in i.short_description
        )
        # The incident lands on the cluster CI, not "unknown".
        assert page_incident.ci_name == "perlmutter"

        # Burn stops with the fault; the page self-resolves once the
        # short window drains (plus staleness).
        fw.run_for(minutes(30))
        active = {
            a.name
            for a in fw.alertmanager.active_alerts()
            if a.labels.get("category") == "slo"
        }
        assert "SloPageBurn_5m_1h" not in active
        # The correlated SN alert closed on the clear event.
        sn_page_alerts = [
            a
            for a in fw.servicenow.alerts()
            if a.metric_name == "SloPageBurn_5m_1h"
        ]
        assert sn_page_alerts
        assert all(
            a.state is SnAlertState.CLOSED for a in sn_page_alerts
        )

    def test_tickets_do_not_open_incidents(self):
        fw = make_framework()
        fw.run_for(minutes(2))
        fw.faults.schedule(
            FaultKind.BURN_INJECTION,
            "ingest-availability",
            duration_ns=minutes(3),
            events_per_tick=500,
            error_rate=1.0,
        )
        fw.run_for(minutes(6))
        active = fw.alertmanager.active_alerts()
        tickets = [a for a in active if a.labels.get("tier") == "ticket"]
        assert tickets, "slow-burn ticket tiers should also be active"
        assert all(a.severity == "warning" for a in tickets)
        # Warning-grade events reach SN but never qualify for incidents.
        for name in ("SloTicketBurn_2h_1d", "SloTicketBurn_6h_3d"):
            assert not any(
                name in i.short_description
                for i in fw.servicenow.incidents()
            )

    def test_exhaustion_alert_carries_history(self):
        fw = make_framework()
        fw.run_for(minutes(2))
        fw.faults.schedule(
            FaultKind.BURN_INJECTION,
            "ingest-availability",
            duration_ns=minutes(3),
            events_per_tick=500,
            error_rate=1.0,
        )
        fw.run_for(minutes(6))
        exhausted = [
            a
            for a in fw.alertmanager.active_alerts()
            if a.name == "SloErrorBudgetExhausted"
        ]
        assert len(exhausted) == 1
        alert = exhausted[0]
        assert alert.severity == "critical"
        assert alert.labels.get("slo") == "ingest-availability"
        assert "burn_history" in alert.annotations
        assert "5m=" in alert.annotations["burn_history"]
        # Exhaustion opened its own incident too.
        assert any(
            "SloErrorBudgetExhausted" in i.short_description
            for i in fw.servicenow.incidents()
        )


class TestSurfaces:
    def test_dashboard_renders_heatmap(self):
        fw = make_framework()
        fw.run_for(minutes(2))
        fw.faults.schedule(
            FaultKind.BURN_INJECTION,
            "ingest-availability",
            duration_ns=minutes(3),
            events_per_tick=500,
            error_rate=1.0,
        )
        fw.run_for(minutes(6))
        out = fw.dashboards["slo"].render(
            fw.clock.now_ns - minutes(10), fw.clock.now_ns, seconds(30)
        )
        assert "SLO Overview" in out or "budget" in out.lower()
        assert "Burn rate heatmap" in out
        assert "ingest-availability/5m" in out
        assert "scale:" in out

    def test_logcli_slo_reflects_state(self):
        fw = make_framework()
        fw.run_for(minutes(2))
        fw.faults.schedule(
            FaultKind.BURN_INJECTION,
            "ingest-availability",
            duration_ns=minutes(3),
            events_per_tick=500,
            error_rate=1.0,
        )
        fw.run_for(minutes(6))
        out = run_logcli(LokiStore(), ["slo"], slo=fw.slo_manager)
        lines = out.splitlines()
        assert lines[0].startswith("SLO")
        row = next(l for l in lines if l.startswith("ingest-availability"))
        assert row.rstrip().endswith("exhausted")

    def test_health_summary_has_slo_keys(self):
        fw = make_framework()
        fw.run_for(minutes(2))
        summary = fw.health_summary()
        assert "slo_ingest_availability_budget_remaining" in summary
        assert summary["slo_budgets_exhausted"] == 0.0
        assert summary["slo_recording_samples"] >= 0.0
