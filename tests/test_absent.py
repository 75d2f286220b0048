"""Tests for PromQL absent() — the silent-failure alerting primitive."""

import pytest

from repro.common.errors import QueryError
from repro.common.simclock import minutes
from repro.cluster.topology import ClusterSpec
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.tsdb.promql import PromAbsent, PromQLEngine, parse_promql
from repro.tsdb.storage import TimeSeriesStore


@pytest.fixture
def engine():
    return TimeSeriesStore(), None


class TestAbsent:
    def test_parse(self):
        expr = parse_promql('absent(node_up{job="node"})')
        assert isinstance(expr, PromAbsent)

    def test_parse_label_only(self):
        expr = parse_promql('absent({__name__="m"})')
        assert isinstance(expr, PromAbsent)

    def test_parse_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse_promql("absent(5)")

    def test_absent_when_no_data(self):
        store = TimeSeriesStore()
        eng = PromQLEngine(store)
        samples = eng.query_instant('absent(m{job="x"})', minutes(1))
        assert len(samples) == 1
        assert samples[0].value == 1.0
        # Equality matchers propagate into the result labels.
        assert samples[0].labels == {"job": "x"}

    def test_present_when_fresh_data(self):
        store = TimeSeriesStore()
        store.ingest("m", {"job": "x"}, 1.0, minutes(1))
        eng = PromQLEngine(store)
        assert eng.query_instant('absent(m{job="x"})', minutes(2)) == []

    def test_absent_again_after_staleness(self):
        store = TimeSeriesStore()
        store.ingest("m", {}, 1.0, 0)
        eng = PromQLEngine(store)
        assert eng.query_instant("absent(m)", minutes(4)) == []
        assert len(eng.query_instant("absent(m)", minutes(6))) == 1

    def test_regex_matchers_not_in_result_labels(self):
        store = TimeSeriesStore()
        eng = PromQLEngine(store)
        samples = eng.query_instant('absent(m{job=~"x.*"})', 0 + 1)
        assert samples[0].labels == {}


class TestTelemetrySilentRule:
    def test_stalled_sensor_pipeline_alerts(self):
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1)
            )
        )
        fw.start()
        fw.run_for(minutes(5))  # healthy baseline
        fw.hms.collect_sensors = lambda: 0  # type: ignore[assignment]
        fw.run_for(minutes(30))
        assert any("TelemetrySilent" in m.text for m in fw.slack.messages)

    def test_healthy_pipeline_quiet(self):
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1)
            )
        )
        fw.run_for(minutes(30))
        assert not any("TelemetrySilent" in m.text for m in fw.slack.messages)
