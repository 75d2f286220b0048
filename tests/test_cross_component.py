"""Cross-component combinations not covered elsewhere: the LogQL engine
over a sharded cluster, the query frontend over PromQL, dashboards over
the frontend, and Ruler alerting over a sharded store."""

import pytest

from repro.common.simclock import SimClock, hours, minutes, seconds
from repro.alerting.events import AlertState
from repro.alerting.rules import RuleSpec
from repro.grafana.panels import TimeSeriesPanel
from repro.loki.frontend import QueryFrontend
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import PushRequest
from repro.loki.ruler import Ruler
from repro.ring.cluster import RingLokiCluster
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.storage import TimeSeriesStore
from tests.tracing import off_tracer


class TestEngineOverShardedCluster:
    @pytest.fixture
    def world(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=1, tracer=off_tracer())
        for i in range(40):
            cluster.push(
                PushRequest.single(
                    {"app": "fm", "xname": f"x1c0r{i % 8}b0"},
                    [(seconds(i), f"problem event {i}")],
                )
            )
        return cluster, LogQLEngine(cluster)

    def test_log_query_spans_shards(self, world):
        cluster, engine = world
        results = engine.query_logs('{app="fm"}', 0, minutes(5))
        total = sum(len(e) for _, e in results)
        assert total == 40
        assert len(results) == 8  # one stream per xname

    def test_metric_query_spans_shards(self, world):
        cluster, engine = world
        samples = engine.query_instant(
            'sum(count_over_time({app="fm"}[5m]))', minutes(1)
        )
        assert samples[0].value == 40.0

    def test_ruler_over_cluster(self, world):
        cluster, engine = world
        clock = SimClock(0)
        events = []
        ruler = Ruler(engine, clock, events.append)
        ruler.add_rule(
            RuleSpec(
                name="Storm",
                expr='sum(count_over_time({app="fm"}[5m])) > 10',
            )
        )
        clock.advance(minutes(1))
        ruler.evaluate_all()
        assert events and events[0].state is AlertState.FIRING


class TestFrontendOverPromQL:
    def test_split_cache_works_for_metrics(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        for i in range(360):
            store.ingest("g", {"x": "1"}, float(i), minutes(i))
        clock.advance(hours(6))
        engine = PromQLEngine(store)
        frontend = QueryFrontend(engine, clock, split_ns=hours(1))
        direct = engine.query_range("sum(g)", 0, hours(5), minutes(10))
        split = frontend.query_range("sum(g)", 0, hours(5), minutes(10))
        assert split == direct
        # Second run fully cached.
        frontend.query_range("sum(g)", 0, hours(5), minutes(10))
        assert frontend.cache_hits >= 5

    def test_dashboard_panel_over_frontend(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        for i in range(60):
            store.ingest("node_up", {}, 1.0, minutes(i))
        clock.advance(hours(1))
        engine = PromQLEngine(store)
        frontend = QueryFrontend(engine, clock, split_ns=minutes(30))
        panel = TimeSeriesPanel("up", frontend, "sum(node_up)")
        out = panel.render(0, minutes(50), minutes(10))
        assert "●" in out
