"""Tests for LogQL evaluation: pipelines, range aggs, grouping, binops."""

import json

import pytest

from repro.common.errors import QueryError
from repro.common.labels import LabelSet
from repro.common.simclock import minutes, seconds
from repro.loki.logql.engine import ERROR_LABEL, LogQLEngine
from repro.loki.model import PushRequest
from repro.loki.store import LokiStore


@pytest.fixture
def engine():
    store = LokiStore()
    eng = LogQLEngine(store)
    return store, eng


def push(store, labels, entries):
    store.push(PushRequest.single(labels, entries))


class TestLogQueries:
    def test_selector_only(self, engine):
        store, eng = engine
        push(store, {"app": "x"}, [(1, "hello")])
        push(store, {"app": "y"}, [(2, "world")])
        results = eng.query_logs('{app="x"}', 0, 10)
        assert len(results) == 1
        assert results[0][0] == {"app": "x"}

    def test_line_filter_chain(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(1, "error: disk full"), (2, "ok"), (3, "error: net")])
        results = eng.query_logs('{a="b"} |= "error" != "net"', 0, 10)
        assert [e.line for e in results[0][1]] == ["error: disk full"]

    def test_regex_filters(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(1, "code=500"), (2, "code=200")])
        results = eng.query_logs('{a="b"} |~ "code=5.."', 0, 10)
        assert len(results[0][1]) == 1

    def test_json_extraction_regroups_streams(self, engine):
        store, eng = engine
        lines = [
            (1, json.dumps({"level": "info"})),
            (2, json.dumps({"level": "error"})),
            (3, json.dumps({"level": "error"})),
        ]
        push(store, {"app": "x"}, lines)
        results = eng.query_logs('{app="x"} | json', 0, 10)
        assert len(results) == 2  # split by extracted `level`
        by_level = {labels["level"]: len(entries) for labels, entries in results}
        assert by_level == {"info": 1, "error": 2}

    def test_json_error_label_on_garbage(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(1, "not json")])
        results = eng.query_logs('{a="b"} | json', 0, 10)
        assert results[0][0][ERROR_LABEL] == "JSONParserErr"

    def test_label_filter_after_parser(self, engine):
        store, eng = engine
        push(
            store,
            {"a": "b"},
            [(1, json.dumps({"sev": "crit"})), (2, json.dumps({"sev": "info"}))],
        )
        results = eng.query_logs('{a="b"} | json | sev="crit"', 0, 10)
        assert len(results) == 1 and len(results[0][1]) == 1

    def test_numeric_label_filter(self, engine):
        store, eng = engine
        push(
            store,
            {"a": "b"},
            [(1, json.dumps({"ms": 5})), (2, json.dumps({"ms": 500}))],
        )
        results = eng.query_logs('{a="b"} | json | ms > 100', 0, 10)
        assert len(results[0][1]) == 1

    def test_logfmt(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(1, 'level=warn msg="disk almost full" pct=91')])
        results = eng.query_logs('{a="b"} | logfmt | level="warn"', 0, 10)
        labels = results[0][0]
        assert labels["msg"] == "disk almost full"
        assert labels["pct"] == "91"

    def test_collision_gets_extracted_suffix(self, engine):
        store, eng = engine
        push(store, {"app": "stream-app"}, [(1, json.dumps({"app": "inner"}))])
        results = eng.query_logs('{app="stream-app"} | json', 0, 10)
        labels = results[0][0]
        assert labels["app"] == "stream-app"
        assert labels["app_extracted"] == "inner"

    def test_non_ascii_keys_are_sanitised_not_dropped(self, engine):
        # Loki's sanitizeLabelKey: every character outside [A-Za-z0-9_]
        # becomes "_", non-ASCII letters and digits too.
        store, eng = engine
        line = json.dumps({"café": "x", "k²": "y", "ok": "z"}, ensure_ascii=False)
        push(store, {"a": "b"}, [(1, line)])
        results = eng.query_logs('{a="b"} | json', 0, 10)
        assert results[0][0] == {"a": "b", "caf_": "x", "k_": "y", "ok": "z"}

    def test_metric_query_rejected_in_query_logs(self, engine):
        _, eng = engine
        with pytest.raises(QueryError):
            eng.query_logs('count_over_time({a="b"}[1m])', 0, 10)


class TestRangeAggregations:
    def test_count_over_time_window(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(seconds(i), "x") for i in range(10)])
        # Window (t-5s, t]: entries at 1..5s.
        samples = eng.query_instant('count_over_time({a="b"}[5s])', seconds(5))
        assert samples[0].value == 5.0

    def test_rate_is_count_per_second(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(seconds(i), "x") for i in range(60)])
        samples = eng.query_instant('rate({a="b"}[60s])', seconds(59))
        assert samples[0].value == pytest.approx(1.0)

    def test_bytes_over_time(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(1, "12345"), (2, "123")])
        samples = eng.query_instant('bytes_over_time({a="b"}[1m])', minutes(1))
        assert samples[0].value == 8.0

    def test_no_entries_means_no_sample(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(1, "x")])
        assert eng.query_instant('count_over_time({a="b"}[1s])', minutes(60)) == []

    def test_paper_leak_query_steps_to_one(self, engine):
        store, eng = engine
        content = json.dumps(
            {
                "Severity": "Warning",
                "MessageId": "CrayAlerts.1.0.CabinetLeakDetected",
                "Message": "Sensor 'A' ... leak.",
            }
        )
        event_ts = minutes(10)
        push(
            store,
            {"Context": "x1203c1b0", "cluster": "perlmutter",
             "data_type": "redfish_event"},
            [(event_ts, content)],
        )
        q = (
            'sum(count_over_time({data_type="redfish_event"} '
            '|= "CabinetLeakDetected" | json [60m])) '
            "by (Severity, cluster, Context, MessageId)"
        )
        before = eng.query_instant(q, event_ts - 1)
        after = eng.query_instant(q, event_ts + minutes(5))
        assert before == []
        assert len(after) == 1
        assert after[0].value == 1.0
        assert after[0].labels == {
            "Severity": "Warning",
            "cluster": "perlmutter",
            "Context": "x1203c1b0",
            "MessageId": "CrayAlerts.1.0.CabinetLeakDetected",
        }
        # And it falls back to empty once the 60m window slides past.
        gone = eng.query_instant(q, event_ts + minutes(61))
        assert gone == []


class TestVectorAggregation:
    def _populate(self, store):
        for ctx in ("x1", "x2"):
            for i in range(3):
                push(
                    store,
                    {"ctx": ctx, "n": str(i)},
                    [(seconds(1), "event")],
                )

    def test_sum_by(self, engine):
        store, eng = engine
        self._populate(store)
        samples = eng.query_instant(
            'sum(count_over_time({ctx=~".+"}[1m])) by (ctx)', minutes(1)
        )
        assert [(s.labels["ctx"], s.value) for s in samples] == [
            ("x1", 3.0),
            ("x2", 3.0),
        ]

    def test_sum_without(self, engine):
        store, eng = engine
        self._populate(store)
        samples = eng.query_instant(
            'sum without (n) (count_over_time({ctx=~".+"}[1m]))', minutes(1)
        )
        assert len(samples) == 2

    def test_global_sum(self, engine):
        store, eng = engine
        self._populate(store)
        samples = eng.query_instant(
            'sum(count_over_time({ctx=~".+"}[1m]))', minutes(1)
        )
        assert samples == [samples[0]]
        assert samples[0].value == 6.0
        assert samples[0].labels == LabelSet()

    def test_min_max_avg_count(self, engine):
        store, eng = engine
        push(store, {"s": "1"}, [(seconds(1), "x"), (seconds(2), "y")])
        push(store, {"s": "2"}, [(seconds(1), "z")])
        q = 'count_over_time({s=~".+"}[1m])'
        assert eng.query_instant(f"max({q})", minutes(1))[0].value == 2.0
        assert eng.query_instant(f"min({q})", minutes(1))[0].value == 1.0
        assert eng.query_instant(f"avg({q})", minutes(1))[0].value == 1.5
        assert eng.query_instant(f"count({q})", minutes(1))[0].value == 2.0


class TestBinOps:
    def test_comparison_filters(self, engine):
        store, eng = engine
        push(store, {"s": "1"}, [(seconds(1), "x")])
        push(store, {"s": "2"}, [(seconds(1), "x"), (seconds(2), "y")])
        q = 'count_over_time({s=~".+"}[1m]) > 1'
        samples = eng.query_instant(q, minutes(1))
        assert len(samples) == 1 and samples[0].labels["s"] == "2"

    def test_arithmetic_transforms(self, engine):
        store, eng = engine
        push(store, {"s": "1"}, [(seconds(1), "x")])
        samples = eng.query_instant('count_over_time({s="1"}[1m]) * 10', minutes(1))
        assert samples[0].value == 10.0

    def test_scalar_left_comparison(self, engine):
        store, eng = engine
        push(store, {"s": "1"}, [(seconds(1), "x")])
        samples = eng.query_instant('0 < count_over_time({s="1"}[1m])', minutes(1))
        assert len(samples) == 1


class TestRangeQueries:
    def test_step_series(self, engine):
        store, eng = engine
        push(store, {"a": "b"}, [(minutes(5), "event")])
        series = eng.query_range(
            'count_over_time({a="b"}[2m])', minutes(4), minutes(8), minutes(1)
        )
        assert len(series) == 1
        # Sample present while the event is inside the sliding 2m window.
        assert series[0].points == ((minutes(5), 1.0), (minutes(6), 1.0))

    def test_bad_step_rejected(self, engine):
        _, eng = engine
        with pytest.raises(QueryError):
            eng.query_range('count_over_time({a="b"}[1m])', 0, 10, 0)

    def test_log_query_rejected_in_instant(self, engine):
        _, eng = engine
        with pytest.raises(QueryError):
            eng.query_instant('{a="b"}', 0)
