"""Tests for PromQL topk/bottomk and the TopListPanel."""

import pytest

from repro.common.errors import QueryError
from repro.common.simclock import seconds
from repro.grafana.panels import TopListPanel
from repro.tsdb.promql import PromQLEngine, parse_promql
from repro.tsdb.storage import TimeSeriesStore


@pytest.fixture
def engine():
    store = TimeSeriesStore()
    for i, temp in enumerate([30.0, 95.0, 60.0, 88.0, 42.0]):
        store.ingest("node_temp_celsius", {"xname": f"x1c0s{i}b0n0"}, temp, 0)
    return PromQLEngine(store)


class TestTopK:
    def test_topk_orders_descending(self, engine):
        samples = engine.query_instant("topk(2, node_temp_celsius)", seconds(1))
        assert [s.value for s in samples] == [95.0, 88.0]

    def test_bottomk(self, engine):
        samples = engine.query_instant("bottomk(2, node_temp_celsius)", seconds(1))
        assert [s.value for s in samples] == [30.0, 42.0]

    def test_k_larger_than_vector(self, engine):
        samples = engine.query_instant("topk(99, node_temp_celsius)", seconds(1))
        assert len(samples) == 5

    def test_topk_composes_with_filter(self, engine):
        samples = engine.query_instant(
            "topk(3, node_temp_celsius > 50)", seconds(1)
        )
        assert [s.value for s in samples] == [95.0, 88.0, 60.0]

    def test_k_validated(self):
        with pytest.raises(QueryError):
            parse_promql("topk(0, m)")

    def test_parse_shape(self):
        expr = parse_promql("bottomk(3, sum by (x) (m))")
        assert expr.bottom and expr.k == 3


class TestTopListPanel:
    def test_render(self, engine):
        panel = TopListPanel(
            "Hottest nodes",
            engine,
            "topk(3, node_temp_celsius)",
            unit=" C",
        )
        out = panel.render(0, seconds(1), seconds(1))
        lines = out.splitlines()
        assert lines[0] == "== Hottest nodes =="
        assert "1. x1c0s1b0n0" in lines[1]
        assert "95.00 C" in lines[1]
        assert len(lines) == 4

    def test_render_empty(self, engine):
        panel = TopListPanel("x", engine, "topk(3, ghost)")
        assert "(no data)" in panel.render(0, seconds(1), seconds(1))
