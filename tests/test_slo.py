"""Unit tests for repro.slo: model, burn math, budgets, manager,
exporter, the heatmap panel, the BURN_INJECTION fault, and logcli slo."""

from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.alerting.events import AlertState
from repro.cluster.faults import FaultInjector, FaultKind
from repro.cluster.topology import Cluster, ClusterSpec
from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, hours, minutes, seconds
from repro.exporters.slo_exporter import SloExporter
from repro.grafana.panels import HeatmapPanel
from repro.loki.logcli import run_logcli
from repro.loki.store import LokiStore
from repro.slo import (
    DEFAULT_BURN_WINDOWS,
    SLI_GOOD_METRIC,
    SLI_TOTAL_METRIC,
    SLO,
    SLO_LABEL,
    BurnWindow,
    ErrorBudget,
    SliCollector,
    SliSnapshot,
    SloManager,
    StaticSource,
    budget_rate,
    burn_metric_name,
    burn_rate,
    detection_latency_bound_ns,
    max_within_budget_burn,
    multiwindow_fires,
    time_to_exceed_ns,
    windowed_error_fraction,
)
from repro.slo.plane import register_faults
from repro.slo.sources import (
    AlertDeliverySource,
    IngestAvailabilitySource,
    PatternFreshnessSource,
    QueryLatencySource,
)
from repro.tsdb import PromQLEngine, TimeSeriesStore
from tests.tracing import off_tracer


# ----------------------------------------------------------------------
# Model
# ----------------------------------------------------------------------
class TestSLOModel:
    def test_defaults_point_at_sli_counters(self):
        # No selector of its own: every SLO is the SLI counter families'
        # series under its `slo` label.
        slo = SLO(name="ingest-availability", description="pushes land")
        assert [f.name for f in fields(slo)] == [
            "name", "description", "objective", "window",
        ]
        assert (SLI_GOOD_METRIC, SLI_TOTAL_METRIC, SLO_LABEL) == (
            "slo_sli_good_total", "slo_sli_total", "slo",
        )

    def test_rejects_bad_names(self):
        for bad in ("Ingest", "9lives", "has_underscore", ""):
            with pytest.raises(ValidationError):
                SLO(name=bad, description="x")

    def test_rejects_bad_objective(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                SLO(name="a", description="x", objective=bad)

    def test_rejects_unparseable_expr(self):
        # The per-SLO selector knob is gone, not ignored.
        with pytest.raises(TypeError):
            SLO(name="a", description="x", good_expr="rate(")

    def test_budget_rate_and_window(self):
        slo = SLO(name="a", description="x", objective=0.99, window="1d")
        assert slo.budget_rate == pytest.approx(0.01)
        assert slo.window_ns == hours(24)

    def test_describe_mentions_objective(self):
        slo = SLO(name="a", description="queries are fast", objective=0.95)
        text = slo.describe()
        assert "95%" in text and "queries are fast" in text


class TestSliSnapshot:
    def test_bad_is_total_minus_good(self):
        assert SliSnapshot(good=90.0, total=100.0).bad == pytest.approx(10.0)

    def test_rejects_good_above_total(self):
        with pytest.raises(ValidationError):
            SliSnapshot(good=101.0, total=100.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            SliSnapshot(good=-1.0, total=0.0)


# ----------------------------------------------------------------------
# Burn-rate math
# ----------------------------------------------------------------------
class TestBurnWindow:
    def test_default_table_is_the_workbook(self):
        assert [(w.short, w.long, w.factor) for w in DEFAULT_BURN_WINDOWS] == [
            ("5m", "1h", 14.4),
            ("30m", "6h", 6.0),
            ("2h", "1d", 3.0),
            ("6h", "3d", 1.0),
        ]
        assert [w.is_page for w in DEFAULT_BURN_WINDOWS] == [
            True, True, False, False,
        ]

    def test_short_must_be_shorter(self):
        with pytest.raises(ValidationError):
            BurnWindow("1h", "5m", 2.0, "page")

    def test_factor_and_severity_validated(self):
        with pytest.raises(ValidationError):
            BurnWindow("5m", "1h", 0.0, "page")
        with pytest.raises(ValidationError):
            BurnWindow("5m", "1h", 2.0, "sms")


class TestBurnMath:
    def test_budget_rate(self):
        assert budget_rate(0.999) == pytest.approx(0.001)
        with pytest.raises(ValidationError):
            budget_rate(1.0)

    def test_burn_rate_of_total_outage(self):
        # 100% errors against 99.9%: burn = 1/0.001 = 1000x.
        assert burn_rate(1.0, 0.999) == pytest.approx(1000.0)
        assert burn_rate(0.0, 0.999) == 0.0

    def test_windowed_error_fraction_respects_window(self):
        events = [
            (minutes(1), 100.0, 100.0),  # bad burst, old
            (minutes(30), 100.0, 0.0),  # clean traffic, recent
        ]
        # 5m window at t=31m only sees the clean batch.
        frac = windowed_error_fraction(events, minutes(31), minutes(5))
        assert frac == 0.0
        # 1h window sees both: 100 bad / 300 total.
        frac = windowed_error_fraction(events, minutes(31), hours(1))
        assert frac == pytest.approx(1.0 / 3.0)

    def test_windowed_error_fraction_zero_traffic(self):
        assert windowed_error_fraction([], minutes(10), minutes(5)) == 0.0

    def test_multiwindow_needs_both_windows(self):
        window = BurnWindow("5m", "1h", 14.4, "page")
        objective = 0.999
        # Steady good traffic plus one late bad burst: the 5m window
        # burns ~90x but the diluted 1h window stays under 14.4x, so the
        # multi-window rule must NOT fire.
        burst = [(minutes(i), 1000.0, 0.0) for i in range(60)]
        burst.append((minutes(59) + seconds(30), 0.0, 500.0))
        burst.sort()
        from repro.slo import windowed_burn

        assert windowed_burn(burst, hours(1), minutes(5), objective) > 14.4
        assert windowed_burn(burst, hours(1), hours(1), objective) < 14.4
        assert not multiwindow_fires(burst, hours(1), window, objective)
        # A sustained outage lights up both windows.
        sustained = [
            (minutes(i), 0.0, 100.0) for i in range(0, 65)
        ]
        assert multiwindow_fires(sustained, minutes(64), window, objective)

    def test_time_to_exceed(self):
        # Total outage vs 99.9%, 1h window, factor 14.4:
        # d = 1h * 14.4 * 0.001 = 51.84s.
        t = time_to_exceed_ns(hours(1), 14.4, 0.999, 1.0)
        assert t == int(hours(1) * 14.4 * 0.001) + 1
        # Below the factor the window saturates without firing.
        assert time_to_exceed_ns(hours(1), 14.4, 0.999, 0.001) is None

    def test_detection_latency_bound(self):
        window = DEFAULT_BURN_WINDOWS[0]
        bound = detection_latency_bound_ns(window, 0.999, seconds(30))
        # Long window dominates; total outage crosses 1h@14.4x in ~52s.
        assert bound == time_to_exceed_ns(hours(1), 14.4, 0.999, 1.0) + seconds(30)
        assert bound < window.short_ns + seconds(30)
        # A within-budget error rate never pages.
        assert detection_latency_bound_ns(window, 0.999, seconds(30), 0.001) is None

    def test_max_within_budget_burn(self):
        assert max_within_budget_burn(DEFAULT_BURN_WINDOWS) == pytest.approx(6.0)
        with pytest.raises(ValidationError):
            max_within_budget_burn(
                [BurnWindow("5m", "1h", 2.0, "ticket")]
            )

    def test_metric_names(self):
        assert burn_metric_name("5m") == "slo_burn_rate_5m"
        with pytest.raises(ValidationError):
            burn_metric_name("5m!")


# ----------------------------------------------------------------------
# Error budget
# ----------------------------------------------------------------------
class TestErrorBudget:
    def make(self, objective=0.999, window="30d"):
        return ErrorBudget(
            SLO(name="a", description="x", objective=objective, window=window)
        )

    def test_untouched_budget_reads_full(self):
        budget = self.make()
        assert budget.remaining_ratio() == 1.0
        budget.observe(0, SliSnapshot(0.0, 0.0))
        assert budget.remaining_ratio() == 1.0
        assert not budget.exhausted

    def test_consumption_is_proportional(self):
        budget = self.make(objective=0.99)
        budget.observe(0, SliSnapshot(0.0, 0.0))
        # 1000 events, 5 bad; allowance is 10 → half spent.
        budget.observe(minutes(1), SliSnapshot(995.0, 1000.0))
        assert budget.remaining_ratio() == pytest.approx(0.5)
        assert not budget.exhausted

    def test_exhaustion_and_overspend(self):
        budget = self.make(objective=0.99)
        budget.observe(0, SliSnapshot(0.0, 0.0))
        budget.observe(minutes(1), SliSnapshot(980.0, 1000.0))  # 20 bad vs 10
        assert budget.remaining_ratio() == pytest.approx(-1.0)
        assert budget.exhausted

    def test_counter_reset_contributes_zero(self):
        budget = self.make(objective=0.99)
        budget.observe(0, SliSnapshot(1000.0, 1000.0))
        budget.observe(minutes(1), SliSnapshot(0.0, 0.0))  # restart
        budget.observe(minutes(2), SliSnapshot(99.0, 100.0))
        bad, total = budget.window_totals()
        assert total == pytest.approx(100.0)
        assert bad == pytest.approx(1.0)

    def test_out_of_order_rejected(self):
        budget = self.make()
        budget.observe(minutes(5), SliSnapshot(0.0, 0.0))
        with pytest.raises(ValidationError):
            budget.observe(minutes(4), SliSnapshot(0.0, 0.0))

    def test_window_pruning_lets_budget_recover(self):
        budget = self.make(objective=0.99, window="10m")
        budget.observe(0, SliSnapshot(0.0, 0.0))
        budget.observe(minutes(1), SliSnapshot(980.0, 1000.0))
        assert budget.exhausted
        # Clean snapshots march the bad burst out of the 10m window.
        for i in range(2, 15):
            budget.observe(minutes(i), SliSnapshot(980.0 + i, 1000.0 + i))
        assert not budget.exhausted
        assert budget.remaining_ratio() > 0.0


# ----------------------------------------------------------------------
# SLI sources
# ----------------------------------------------------------------------
class TestSources:
    def test_static_source_empty(self):
        snap = StaticSource().snapshot()
        assert (snap.good, snap.total) == (0.0, 0.0)

    def test_collector_injection_is_additive(self):
        collector = SliCollector(StaticSource())
        collector.inject(90.0, 10.0)
        collector.inject(10.0, 0.0)
        snap = collector.snapshot()
        assert snap.good == pytest.approx(100.0)
        assert snap.total == pytest.approx(110.0)
        assert snap.bad == pytest.approx(10.0)
        with pytest.raises(ValidationError):
            collector.inject(-1.0, 0.0)

    def test_ingest_availability_source(self):
        warehouse = SimpleNamespace(messages_ingested=900)
        admission = SimpleNamespace(
            counters={
                "acme": SimpleNamespace(entries_discarded=40),
                "beta": SimpleNamespace(entries_discarded=10),
            }
        )
        distributor = SimpleNamespace(quorum_failures=50)
        snap = IngestAvailabilitySource(
            warehouse, admission, distributor
        ).snapshot()
        assert snap.good == pytest.approx(900.0)
        assert snap.total == pytest.approx(1000.0)

    def test_query_latency_source(self):
        engine = SimpleNamespace(queries_total=200, slow_queries_total=8)
        snap = QueryLatencySource(engine).snapshot()
        assert snap.good == pytest.approx(192.0)
        assert snap.total == pytest.approx(200.0)

    def test_alert_delivery_source_ignores_pending(self):
        journal = SimpleNamespace(
            stats=lambda: {"delivered": 95, "failed": 5, "pending": 1000}
        )
        snap = AlertDeliverySource(journal).snapshot()
        assert snap.good == pytest.approx(95.0)
        assert snap.total == pytest.approx(100.0)

    def test_pattern_freshness_source(self):
        ruler = SimpleNamespace(
            novel_detections=[
                SimpleNamespace(latency_ns=seconds(30)),
                SimpleNamespace(latency_ns=minutes(5)),
                SimpleNamespace(latency_ns=seconds(90)),
            ]
        )
        snap = PatternFreshnessSource(ruler, minutes(2)).snapshot()
        assert snap.good == pytest.approx(2.0)
        assert snap.total == pytest.approx(3.0)
        with pytest.raises(ValidationError):
            PatternFreshnessSource(ruler, 0)


# ----------------------------------------------------------------------
# Manager
# ----------------------------------------------------------------------
@pytest.fixture
def slo_world():
    clock = SimClock(0)
    store = TimeSeriesStore()
    promql = PromQLEngine(store)
    events = []
    manager = SloManager(
        clock, promql, store, events.append, cluster="testcluster",
        tracer=off_tracer(),
    )
    return clock, store, promql, manager, events


def drive(clock, store, manager, collector, name, steps, step_ns=seconds(30)):
    """Simulate the scrape→record loop: publish the collector's counters
    into the TSDB each step, then tick the manager."""
    for _ in range(steps):
        clock.advance(step_ns)
        snap = collector.snapshot()
        labels = {"slo": name, "job": "slo"}
        store.ingest("slo_sli_good_total", labels, snap.good, clock.now_ns)
        store.ingest("slo_sli_total", labels, snap.total, clock.now_ns)
        manager.tick()


class TestSloManager:
    def test_register_installs_rules_per_window(self, slo_world):
        clock, store, promql, manager, _ = slo_world
        collector = manager.register(SLO(name="a", description="x"), StaticSource())
        windows = ("5m", "1h", "30m", "6h", "2h", "1d", "3d")
        # One error-ratio rule per distinct window, over every SLO.
        assert [rule.record for rule in manager._ratio_rules.values()] == [
            f"slo_error_ratio_{w}" for w in windows
        ]
        for _ in range(2):
            collector.inject(100.0, 1.0)
            drive(clock, store, manager, collector, "a", 1)
        for w in windows:
            for recorded in (
                f'slo_burn_rate_{w}{{slo="a"}}',
                f'slo_error_ratio_{w}{{slo="a"}}',
                f'slo_burn_rate{{slo="a",window="{w}"}}',  # heatmap alias
            ):
                assert len(promql.query_instant(recorded, clock.now_ns)) == 1

    def test_register_twice_rejected(self, slo_world):
        _, _, _, manager, _ = slo_world
        manager.register(SLO(name="a", description="x"), StaticSource())
        with pytest.raises(ValidationError):
            manager.register(SLO(name="a", description="x"), StaticSource())

    def test_second_slo_shares_global_alias(self, slo_world):
        _, _, _, manager, _ = slo_world
        manager.register(SLO(name="a", description="x"), StaticSource())
        rules = dict(manager._ratio_rules)
        aliases = dict(manager._aliases)
        manager.register(SLO(name="b", description="y"), StaticSource())
        # The second SLO adds no rule and no alias: both are per window.
        assert manager._ratio_rules == rules and manager._aliases == aliases
        assert len(aliases) == len(manager._distinct_windows())

    def test_rule_specs_are_global_multiwindow(self, slo_world):
        _, _, _, manager, _ = slo_world
        specs = manager.rule_specs()
        names = [s.name for s in specs]
        assert names == [
            "SloPageBurn_5m_1h",
            "SloPageBurn_30m_6h",
            "SloTicketBurn_2h_1d",
            "SloTicketBurn_6h_3d",
        ]
        page = specs[0]
        assert page.expr == "slo_burn_rate_5m > 14.4 and slo_burn_rate_1h > 14.4"
        assert page.labels["severity"] == "critical"
        assert page.labels["category"] == "slo"
        assert page.labels["tier"] == "page"
        assert page.labels["cluster"] == "testcluster"
        ticket = specs[2]
        assert ticket.labels["severity"] == "warning"
        assert ticket.labels["tier"] == "ticket"

    def test_burn_recording_from_sli_counters(self, slo_world):
        clock, store, promql, manager, _ = slo_world
        collector = manager.register(
            SLO(name="a", description="x", objective=0.999), StaticSource()
        )
        # Healthy traffic, then total outage.
        for _ in range(10):
            collector.inject(100.0, 0.0)
            drive(clock, store, manager, collector, "a", 1)
        for _ in range(10):
            collector.inject(0.0, 100.0)
            drive(clock, store, manager, collector, "a", 1)
        samples = promql.query_instant(
            'slo_burn_rate_5m{slo="a"}', clock.now_ns
        )
        assert len(samples) == 1
        # 5m window is pure outage by now: burn = 1/0.001 = 1000x.
        assert samples[0].value == pytest.approx(1000.0)
        # The labelled alias family exists for the heatmap.
        alias = promql.query_instant(
            'slo_burn_rate{slo="a",window="5m"}', clock.now_ns
        )
        assert len(alias) == 1

    def test_no_traffic_drops_burn_sample(self, slo_world):
        clock, store, promql, manager, _ = slo_world
        collector = manager.register(
            SLO(name="a", description="x"), StaticSource()
        )
        drive(clock, store, manager, collector, "a", 12)
        # Zero traffic: the >0 guard must drop the sample, not emit 0/0.
        assert promql.query_instant(
            'slo_burn_rate_5m{slo="a"}', clock.now_ns
        ) == []

    def test_exhaustion_fires_and_resolves(self, slo_world):
        clock, store, promql, manager, events = slo_world
        collector = manager.register(
            SLO(name="a", description="x", objective=0.99, window="10m"),
            StaticSource(),
        )
        collector.inject(1000.0, 0.0)
        drive(clock, store, manager, collector, "a", 2)
        collector.inject(0.0, 200.0)  # 200 bad vs ~12 allowed
        drive(clock, store, manager, collector, "a", 2)
        firing = [e for e in events if e.state is AlertState.FIRING]
        assert len(firing) == 1
        event = firing[0]
        assert event.labels.get("alertname") == "SloErrorBudgetExhausted"
        assert event.labels.get("severity") == "critical"
        assert event.labels.get("slo") == "a"
        assert event.labels.get("cluster") == "testcluster"
        assert "burn_history" in event.annotations
        # Budget recovers once the burst ages out of the 10m window.
        collector.inject(2000.0, 0.0)
        drive(clock, store, manager, collector, "a", 30)
        resolved = [e for e in events if e.state is AlertState.RESOLVED]
        assert len(resolved) == 1
        assert manager.exhaustion_events == 2

    def test_exhausted_at_time_zero_resolves_with_that_start(self, slo_world):
        clock, store, promql, manager, events = slo_world
        collector = manager.register(
            SLO(name="a", description="x", objective=0.99, window="10m"),
            StaticSource(),
        )
        manager.tick()  # the budget's baseline, at t = 0
        collector.inject(0.0, 200.0)
        manager.tick()  # still t = 0, and the budget is gone
        [firing] = [e for e in events if e.state is AlertState.FIRING]
        assert firing.started_at_ns == firing.fired_at_ns == 0
        collector.inject(2000.0, 0.0)
        drive(clock, store, manager, collector, "a", 30)
        [resolved] = [e for e in events if e.state is AlertState.RESOLVED]
        assert resolved.fired_at_ns > 0
        assert resolved.started_at_ns == 0

    def test_status_rows(self, slo_world):
        clock, store, promql, manager, _ = slo_world
        collector = manager.register(
            SLO(name="a", description="x", objective=0.999), StaticSource()
        )
        collector.inject(500.0, 0.0)
        drive(clock, store, manager, collector, "a", 3)
        rows = manager.status()
        assert len(rows) == 1
        row = rows[0]
        assert row["slo"] == "a"
        assert row["state"] == "ok"
        assert row["budget_remaining"] == pytest.approx(1.0)

    def test_ticks_parse_nothing(self, slo_world, monkeypatch):
        # Everything a tick evaluates — recording rules, the burn
        # read-back, the vmalert tiers — was parsed when it was
        # registered; an evaluation hands the engine ASTs.
        from repro.tsdb import promql as promql_module
        from repro.tsdb.vmalert import VMAlert

        clock, store, promql, manager, _ = slo_world
        collector = manager.register(
            SLO(name="a", description="x", objective=0.99, window="10m"),
            StaticSource(),
        )
        alerts = []
        vmalert = VMAlert(promql, clock, alerts.append)
        for spec in manager.rule_specs():
            vmalert.add_rule(spec)

        def no_parsing(query):
            raise AssertionError(f"parsed at evaluation time: {query!r}")

        monkeypatch.setattr(promql_module, "parse_promql", no_parsing)
        collector.inject(1000.0, 0.0)
        drive(clock, store, manager, collector, "a", 2)
        collector.inject(0.0, 500.0)
        drive(clock, store, manager, collector, "a", 3)
        vmalert.evaluate_all()
        assert manager.recording.samples_recorded > 0
        assert manager.burn_history("a")[-1][1]  # burns were read back
        assert manager.status()[0]["fast_burn"] > 0
        assert alerts and all(e.labels["slo"] == "a" for e in alerts)

    def test_inject_unknown_slo_raises(self, slo_world):
        _, _, _, manager, _ = slo_world
        with pytest.raises(ValidationError):
            manager.inject("nope", 1.0, 0.0)


# ----------------------------------------------------------------------
# Exporter
# ----------------------------------------------------------------------
class TestSloExporter:
    def test_scrape_families(self, slo_world):
        _, _, _, manager, _ = slo_world
        collector = manager.register(
            SLO(name="a", description="x"), StaticSource()
        )
        collector.inject(90.0, 10.0)
        exporter = SloExporter(manager)
        text = exporter.scrape().text()
        assert 'slo_sli_good_total{slo="a"} 90' in text
        assert 'slo_sli_total{slo="a"} 100' in text
        assert 'slo_objective{slo="a"} 0.999' in text
        assert 'slo_budget_remaining_ratio{slo="a"} 1' in text
        assert 'slo_budget_exhausted{slo="a"} 0' in text
        assert 'slo_bad_events_recent{slo="a"} 10' in text
        assert exporter.scrapes_served == 1

    def test_recent_bad_self_resolves(self, slo_world):
        _, _, _, manager, _ = slo_world
        collector = manager.register(
            SLO(name="a", description="x"), StaticSource()
        )
        exporter = SloExporter(manager)
        collector.inject(0.0, 10.0)
        exporter.scrape().text()
        # Quiet interval: the delta gauge must return to 0.
        text = exporter.scrape().text()
        assert 'slo_bad_events_recent{slo="a"} 0' in text


# ----------------------------------------------------------------------
# Heatmap panel
# ----------------------------------------------------------------------
class _FakeHeatmapSource:
    def __init__(self, series):
        self._series = series

    def query_range(self, query, start_ns, end_ns, step_ns):
        return self._series


class TestHeatmapPanel:
    def test_renders_rows_and_scale(self):
        series = [
            SimpleNamespace(
                labels=LabelSet({"slo": "a", "window": "5m"}),
                points=tuple(
                    (minutes(i), 14.4 if i >= 30 else 0.0) for i in range(60)
                ),
            ),
            SimpleNamespace(
                labels=LabelSet({"slo": "b", "window": "5m"}),
                points=tuple((minutes(i), 0.0) for i in range(60)),
            ),
        ]
        panel = HeatmapPanel(
            title="Burn",
            datasource=_FakeHeatmapSource(series),
            query="slo_burn_rate",
            width=12,
            scale_max=14.4,
        )
        out = panel.render(0, hours(1), minutes(1))
        lines = out.splitlines()
        assert lines[0] == "== Burn =="
        hot = next(l for l in lines if l.startswith("a/5m"))
        cold = next(l for l in lines if l.startswith("b/5m"))
        # Second half of the hot row renders at full intensity.
        assert hot.rstrip("|").endswith("@" * 6)
        assert "@" not in cold
        assert "scale:" in lines[-1]
        assert "14.4" in lines[-1]

    def test_empty_renders_no_data(self):
        panel = HeatmapPanel(
            title="Burn", datasource=_FakeHeatmapSource([]), query="x"
        )
        assert "(no data)" in panel.render(0, hours(1), minutes(1))

    def test_validation(self):
        src = _FakeHeatmapSource([])
        with pytest.raises(ValidationError):
            HeatmapPanel(title="x", datasource=src, query="q", width=0)
        with pytest.raises(ValidationError):
            HeatmapPanel(title="x", datasource=src, query="q", scale_max=-1)
        with pytest.raises(ValidationError):
            HeatmapPanel(title="x", datasource=src, query="q", shades="#")


# ----------------------------------------------------------------------
# BURN_INJECTION fault
# ----------------------------------------------------------------------
@pytest.fixture
def fault_world(slo_world):
    clock, store, promql, manager, events = slo_world
    cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=1))
    injector = FaultInjector(cluster, clock)
    register_faults(injector, manager)
    return clock, manager, injector


class TestBurnInjectionFault:
    def test_injects_at_configured_rate(self, fault_world):
        clock, manager, injector = fault_world
        collector = manager.register(
            SLO(name="a", description="x"), StaticSource()
        )
        fault = injector.schedule(
            FaultKind.BURN_INJECTION,
            "a",
            duration_ns=minutes(1),
            events_per_tick=100,
            error_rate=0.25,
        )
        clock.advance(minutes(1))
        snap = collector.snapshot()
        # Ticks land at +1s..+59s; the fault end cancels the tick at 60s.
        assert snap.total == pytest.approx(5900.0)
        assert snap.bad == pytest.approx(1475.0)  # exactly 25%
        assert fault.detail["injected_bad"] == 1475
        assert "budget_remaining_at_end" in fault.detail

    def test_fractional_rate_is_deterministic(self, fault_world):
        clock, manager, injector = fault_world
        collector = manager.register(
            SLO(name="a", description="x"), StaticSource()
        )
        # 0.002 x 100/tick = 0.2 bad per tick: the carry accumulator
        # must produce exactly 1 bad event every 5 ticks, no rounding
        # residue and no randomness.  49 ticks fire (1s..49s).
        injector.schedule(
            FaultKind.BURN_INJECTION,
            "a",
            duration_ns=seconds(50),
            events_per_tick=100,
            error_rate=0.002,
        )
        clock.advance(seconds(50))
        snap = collector.snapshot()
        assert snap.total == pytest.approx(4900.0)
        assert snap.bad == pytest.approx(9.0)  # floor(49 * 0.2)

    def test_stops_at_fault_end(self, fault_world):
        clock, manager, injector = fault_world
        collector = manager.register(
            SLO(name="a", description="x"), StaticSource()
        )
        injector.schedule(
            FaultKind.BURN_INJECTION, "a", duration_ns=seconds(10)
        )
        clock.advance(minutes(1))
        total_at_end = collector.snapshot().total
        clock.advance(minutes(1))
        assert collector.snapshot().total == total_at_end

    def test_unknown_slo_fails_fast(self, fault_world):
        clock, _, injector = fault_world
        injector.schedule(FaultKind.BURN_INJECTION, "nope", delay_ns=seconds(1))
        with pytest.raises(ValidationError):
            clock.advance(seconds(1))

    def test_bad_error_rate_rejected(self, fault_world):
        clock, manager, injector = fault_world
        manager.register(SLO(name="a", description="x"), StaticSource())
        injector.schedule(
            FaultKind.BURN_INJECTION, "a", delay_ns=seconds(1), error_rate=1.5
        )
        with pytest.raises(ValidationError):
            clock.advance(seconds(1))

    def test_requires_attached_manager(self):
        clock = SimClock(0)
        cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=1))
        injector = FaultInjector(cluster, clock)
        with pytest.raises(ValidationError):
            injector.schedule(
                FaultKind.BURN_INJECTION, "a", delay_ns=seconds(1)
            )
        clock.advance(seconds(1))
        assert injector.faults == []


# ----------------------------------------------------------------------
# logcli slo
# ----------------------------------------------------------------------
class TestLogcliSlo:
    def test_table_output(self, slo_world):
        clock, store, promql, manager, _ = slo_world
        collector = manager.register(
            SLO(name="ingest-availability", description="x"), StaticSource()
        )
        collector.inject(500.0, 0.0)
        drive(clock, store, manager, collector, "ingest-availability", 3)
        out = run_logcli(LokiStore(), ["slo"], slo=manager)
        lines = out.splitlines()
        assert lines[0].split() == [
            "SLO", "OBJECTIVE", "BUDGET_LEFT", "FAST_BURN", "SLOW_BURN",
            "STATE",
        ]
        assert lines[1].startswith("ingest-availability")
        assert "100.0%" in lines[1]
        assert lines[1].rstrip().endswith("ok")

    def test_jsonl_output(self, slo_world):
        import json

        _, _, _, manager, _ = slo_world
        manager.register(SLO(name="a", description="x"), StaticSource())
        out = run_logcli(
            LokiStore(), ["slo", "--output", "jsonl"], slo=manager
        )
        row = json.loads(out)
        assert row["slo"] == "a"
        assert row["objective"] == pytest.approx(0.999)
        assert row["state"] == "ok"

    def test_requires_manager(self):
        with pytest.raises(ValidationError):
            run_logcli(LokiStore(), ["slo"], slo=None)
