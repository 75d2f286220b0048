"""Tests for LogQL unwrap and the unwrapped range aggregations."""

import json

import pytest

from repro.common.errors import QueryError
from repro.common.labels import LabelSet
from repro.common.simclock import minutes, seconds
from repro.loki.logql.engine import LogQLEngine
from repro.loki.logql.parser import parse
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import LokiStore
from tests.test_log_store_contract import BACKENDS


@pytest.fixture
def engine():
    store = LokiStore()
    latencies = [10.0, 20.0, 30.0, 40.0]
    entries = [
        (seconds(i + 1), json.dumps({"latency_ms": ms, "path": "/submit"}))
        for i, ms in enumerate(latencies)
    ]
    store.push(PushRequest.single({"app": "api"}, entries))
    return LogQLEngine(store)


class TestParsing:
    def test_unwrap_parses(self):
        expr = parse('sum_over_time({a="b"} | json | unwrap ms [5m])')
        assert expr.pipeline.unwrap_label == "ms"

    def test_unwrap_must_be_last(self):
        with pytest.raises(QueryError):
            parse('sum_over_time({a="b"} | unwrap ms | json [5m])')

    def test_at_most_one_unwrap(self):
        with pytest.raises(QueryError):
            parse('sum_over_time({a="b"} | unwrap x | unwrap y [5m])')

    def test_unwrapped_func_requires_unwrap(self):
        with pytest.raises(QueryError):
            parse('avg_over_time({a="b"} | json [5m])')

    def test_count_rejects_unwrap(self):
        with pytest.raises(QueryError):
            parse('count_over_time({a="b"} | json | unwrap ms [5m])')


class TestEvaluation:
    def test_sum_avg_max_min(self, engine):
        t = minutes(1)

        def run(func):
            q = f'{func}({{app="api"}} | json | unwrap latency_ms [1m])'
            (sample,) = engine.query_instant(q, t)
            return sample.value

        assert run("sum_over_time") == 100.0
        assert run("avg_over_time") == 25.0
        assert run("max_over_time") == 40.0
        assert run("min_over_time") == 10.0

    def test_unwrap_label_removed_from_series(self, engine):
        (sample,) = engine.query_instant(
            'avg_over_time({app="api"} | json | unwrap latency_ms [1m])',
            minutes(1),
        )
        assert "latency_ms" not in sample.labels
        assert sample.labels["path"] == "/submit"

    def test_vector_agg_over_unwrapped(self, engine):
        samples = engine.query_instant(
            'max(avg_over_time({app="api"} | json | unwrap latency_ms [1m])) '
            "by (app)",
            minutes(1),
        )
        assert samples[0].value == 25.0

    def test_non_numeric_values_dropped(self):
        store = LokiStore()
        store.push(
            PushRequest.single(
                {"app": "x"},
                [
                    (1, json.dumps({"v": 5})),
                    (2, json.dumps({"v": "not-a-number"})),
                    (3, json.dumps({"other": 1})),
                ],
            )
        )
        engine = LogQLEngine(store)
        (sample,) = engine.query_instant(
            'sum_over_time({app="x"} | json | unwrap v [1m])', minutes(1)
        )
        assert sample.value == 5.0

    def test_unwrap_in_log_query_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.query_logs('{app="api"} | json | unwrap latency_ms', 0, 10)

    def test_window_respected(self, engine):
        # Window (3s, 63s]: excludes the first three entries? No — entries
        # are at 1..4s; a window ending at 3s contains 1..3 only.
        (sample,) = engine.query_instant(
            'sum_over_time({app="api"} | json | unwrap latency_ms [3s])',
            seconds(3),
        )
        assert sample.value == 10.0 + 20.0 + 30.0


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_an_unwrapped_sum_does_not_depend_on_the_backend(kind):
    """Floats added in another order sum to another float: 1e16 + -1e16
    + 1 is 1.0, -1e16 + 1 + 1e16 is 0.0.  No store orders its streams
    (a bare one answers in creation order, a tiered one cold first), so
    the leaf reads them in label order on every backend."""
    store = BACKENDS[kind]()
    for pid in ("1e16", "-1e16", "1"):
        store.push_stream(LabelSet({"job": "x", "pid": pid}), [LogEntry(seconds(1), "up")])
        if pid == "1e16" and kind.startswith("tiered"):
            store.flush_all()
            store.flush_to_cold()  # one stream cold, two hot
    (sample,) = LogQLEngine(store).query_instant(
        'sum_over_time({job="x"} | unwrap pid [1m])', minutes(1)
    )
    assert sample.value.hex() == "0x0.0p+0"
