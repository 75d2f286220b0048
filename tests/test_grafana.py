"""Tests for the Grafana-like dashboards, panels and renderers."""

import pytest

from repro.common.errors import NotFoundError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import minutes, seconds
from repro.common.vector import Series
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import LogsPanel, StatPanel, TimeSeriesPanel
from repro.grafana.render import render_chart, render_log_table, render_stat
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import LokiStore
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.storage import TimeSeriesStore


@pytest.fixture
def stores():
    loki = LokiStore()
    tsdb = TimeSeriesStore()
    return loki, tsdb, LogQLEngine(loki), PromQLEngine(tsdb)


class TestRenderers:
    def test_chart_step_from_zero_to_one(self):
        series = [
            Series(
                LabelSet({"Context": "x1203c1b0"}),
                tuple((minutes(i), 0.0 if i < 5 else 1.0) for i in range(10)),
            )
        ]
        out = render_chart(series, width=40, height=6, title="leak")
        assert "leak" in out
        assert "●" in out
        assert "x1203c1b0" in out

    def test_chart_no_data(self):
        assert "(no data)" in render_chart([])

    def test_chart_flat_series_visible(self):
        series = [Series(LabelSet({"a": "b"}), ((0, 1.0), (100, 1.0)))]
        out = render_chart(series, width=20, height=4)
        assert "●" in out

    def test_chart_multiple_series_glyphs(self):
        s1 = Series(LabelSet({"s": "1"}), ((0, 1.0),))
        s2 = Series(LabelSet({"s": "2"}), ((0, 2.0),))
        out = render_chart([s1, s2])
        assert "●" in out and "○" in out

    def test_log_table(self):
        rows = [
            (LabelSet({"app": "fm"}), [LogEntry(0, "line one"), LogEntry(1, "two")])
        ]
        out = render_log_table(rows)
        assert "line one" in out and "Time" in out

    def test_log_table_truncation(self):
        rows = [(LabelSet({"a": "b"}), [LogEntry(i, f"l{i}") for i in range(100)])]
        out = render_log_table(rows, max_rows=10)
        assert "90 more rows" in out

    def test_log_table_empty(self):
        assert render_log_table([]) == "(no logs)"

    def test_stat_tile(self):
        out = render_stat("Nodes up", 512.0)
        assert "Nodes up" in out and "512" in out and "┌" in out


class TestPanels:
    def test_logs_panel(self, stores):
        loki, _, loki_ds, _ = stores
        loki.push(PushRequest.single({"app": "x"}, [(seconds(1), "hello world")]))
        panel = LogsPanel("events", loki_ds, '{app="x"}')
        out = panel.render(0, minutes(1), seconds(30))
        assert "hello world" in out

    def test_timeseries_panel(self, stores):
        loki, _, loki_ds, _ = stores
        loki.push(PushRequest.single({"app": "x"}, [(minutes(2), "e")]))
        panel = TimeSeriesPanel(
            "count", loki_ds, 'count_over_time({app="x"}[5m])'
        )
        out = panel.render(0, minutes(10), minutes(1))
        assert "count" in out and "●" in out

    def test_stat_panel_reducers(self, stores):
        _, tsdb, _, prom_ds = stores
        tsdb.ingest("node_up", {"x": "1"}, 1.0, seconds(1))
        tsdb.ingest("node_up", {"x": "2"}, 1.0, seconds(1))
        out = StatPanel("up", prom_ds, "node_up", reducer="sum").render(
            0, seconds(10), seconds(1)
        )
        assert "2" in out
        out = StatPanel("cnt", prom_ds, "node_up", reducer="count").render(
            0, seconds(10), seconds(1)
        )
        assert "2" in out

    def test_stat_panel_bad_reducer(self, stores):
        _, _, _, prom_ds = stores
        with pytest.raises(ValidationError):
            StatPanel("x", prom_ds, "m", reducer="median")


class TestDashboard:
    def test_render_all_panels(self, stores):
        loki, tsdb, loki_ds, prom_ds = stores
        loki.push(PushRequest.single({"app": "x"}, [(seconds(1), "evt")]))
        tsdb.ingest("node_up", {}, 1.0, seconds(1))
        dash = Dashboard("Overview")
        dash.add_panel(LogsPanel("logs", loki_ds, '{app="x"}'))
        dash.add_panel(StatPanel("up", prom_ds, "node_up"))
        out = dash.render(0, seconds(10), seconds(1))
        assert "═══ Overview ═══" in out
        assert "evt" in out and "up" in out

    def test_duplicate_panel_rejected(self, stores):
        _, _, loki_ds, _ = stores
        dash = Dashboard("d")
        dash.add_panel(LogsPanel("p", loki_ds, '{a="b"}'))
        with pytest.raises(ValidationError):
            dash.add_panel(LogsPanel("p", loki_ds, '{a="b"}'))

    def test_panel_lookup(self, stores):
        _, _, loki_ds, _ = stores
        dash = Dashboard("d")
        panel = LogsPanel("p", loki_ds, '{a="b"}')
        dash.add_panel(panel)
        assert dash.panel("p") is panel
        with pytest.raises(NotFoundError):
            dash.panel("ghost")

    def test_empty_window_rejected(self, stores):
        dash = Dashboard("d")
        with pytest.raises(ValidationError):
            dash.render(10, 10, 1)

    def test_url(self):
        assert Dashboard("My Dash").url() == "https://grafana.local/d/my-dash"
