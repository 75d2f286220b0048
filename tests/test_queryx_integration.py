"""Framework integration for the query engine: wiring, metrics, alerts.

REPRO_QUERY_ENGINE=1 (or ``enable_query_engine=True``) must compose with
the other feature planes: the exporter lands queryx metrics in the TSDB
through vmagent, the SlowQueries rule fires off the recent-delta gauge
and self-resolves, dashboards render, and with multi-tenancy on the
frontend transparently routes through the sharded engine.
"""

import pytest

from repro.cluster.topology import ClusterSpec
from repro.common.simclock import minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework
from tests.sharding import every_plan_shards  # noqa: F401

QUERY = 'sum(count_over_time({data_type=~".+"}[5m]))'


def small_spec():
    return ClusterSpec(
        cabinets=1, chassis_per_cabinet=1, slots_per_chassis=4, nodes_per_slot=2
    )


@pytest.fixture
def fw():
    framework = MonitoringFramework(FrameworkConfig(
        cluster_spec=small_spec(),
        enable_query_engine=True,
        enable_object_storage=True,
    ))
    framework.run_for(minutes(10))
    return framework


def last_window(framework, span=minutes(10)):
    end = framework.clock.now_ns
    return end - span, end


class TestWiring:
    def test_flag_off_constructs_nothing(self):
        framework = MonitoringFramework(FrameworkConfig(
            cluster_spec=small_spec(), enable_query_engine=False,
        ))
        assert framework.queryx is None
        assert framework.queryx_exporter is None
        assert framework.blooms is None
        assert "queryx" not in framework.dashboards

    def test_flag_on_constructs_engine_and_exporter(self, fw):
        assert fw.queryx is not None
        assert fw.queryx_exporter is not None
        assert fw.blooms is not None  # objstore on -> blooms wired
        assert "queryx" in fw.dashboards
        assert fw.queryx.pool.live_workers() == 4

    def test_engine_matches_monolithic_on_live_data(self, fw):
        start, end = last_window(fw)
        assert fw.queryx.query_range(
            QUERY, start, end, minutes(1)
        ) == fw.logql.query_range(QUERY, start, end, minutes(1))

    def test_query_engine_without_objstore_has_no_blooms(self):
        framework = MonitoringFramework(FrameworkConfig(
            cluster_spec=small_spec(), enable_query_engine=True,
            enable_object_storage=False,
        ))
        assert framework.queryx is not None
        assert framework.blooms is None
        framework.run_for(minutes(5))
        end = framework.clock.now_ns
        assert framework.queryx.query_range(
            QUERY, end - minutes(5), end, minutes(1)
        ) == framework.logql.query_range(
            QUERY, end - minutes(5), end, minutes(1)
        )


@pytest.mark.usefixtures("every_plan_shards")
class TestMetricsPlane:
    def test_scrape_lands_in_tsdb(self, fw):
        start, end = last_window(fw)
        fw.queryx.query_range(QUERY, start, end, minutes(1))
        fw.run_for(minutes(2))  # scrape interval passes
        tsdb_end = fw.clock.now_ns
        series = fw.promql.query_range(
            "queryx_speedup", tsdb_end - minutes(2), tsdb_end, seconds(60)
        )
        assert series and series[0].points
        assert series[0].points[-1][1] > 1.0

    def test_worker_and_subquery_metrics_present(self, fw):
        start, end = last_window(fw)
        fw.queryx.query_range(QUERY, start, end, minutes(1))
        exposition = fw.queryx_exporter.scrape().text()
        for family in (
            "queryx_queries_total",
            "queryx_subqueries_total",
            "queryx_querier_workers",
            "queryx_worker_busy_seconds",
            "queryx_last_query_seconds",
            "queryx_gateway_chunks_total",
            "queryx_bloom_blocks",
        ):
            assert family in exposition


class TestSlowQueriesAlert:
    def test_rule_installed_only_with_flag(self):
        with_flag = MonitoringFramework(FrameworkConfig(
            cluster_spec=small_spec(), enable_query_engine=True,
        ))
        without = MonitoringFramework(FrameworkConfig(
            cluster_spec=small_spec(), enable_query_engine=False,
        ))
        assert any(r.name == "SlowQueries" for r in with_flag.vmalert.rules())
        assert not any(
            r.name == "SlowQueries" for r in without.vmalert.rules()
        )

    def test_slow_query_fires_and_resolves(self):
        framework = MonitoringFramework(FrameworkConfig(
            cluster_spec=small_spec(),
            enable_query_engine=True,
        ))
        framework.queryx.slow_query_threshold_ns = 1  # every query is "slow"
        framework.run_for(minutes(10))
        start, end = last_window(framework)
        framework.queryx.query_range(QUERY, start, end, minutes(1))
        framework.run_for(minutes(3))
        # The firing notification reached Slack...
        assert any("SlowQueries" in m.text for m in framework.slack.messages)
        # ...and quiet scrapes pushed the recent gauge back to zero, so
        # the alert has already self-resolved.
        framework.run_for(minutes(10))
        active = [
            a for a in framework.alertmanager.active_alerts()
            if a.labels.get("alertname") == "SlowQueries"
        ]
        assert not active


class TestTenancyComposition:
    def test_frontend_routes_through_sharded_engine(self):
        framework = MonitoringFramework(FrameworkConfig(
            cluster_spec=small_spec(),
            enable_query_engine=True,
            enable_multi_tenancy=True,
        ))
        framework.run_for(minutes(10))
        start, end = last_window(framework)
        before = framework.queryx.queries_total
        frame = framework.frontend.query_range(
            QUERY, start, end, minutes(1), tenant="fake"
        )
        assert framework.queryx.queries_total > before
        assert frame == framework.logql.query_range(
            QUERY, start, end, minutes(1)
        )
