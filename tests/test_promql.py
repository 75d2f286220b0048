"""Tests for the PromQL subset parser and engine."""

import pytest

from repro.common.errors import QueryError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet
from repro.common.simclock import minutes, seconds
from repro.common.vectorlang import BinOp, SetExpr, SetOp, VectorAgg
from repro.tsdb.promql import (
    PromQLEngine,
    PromRangeAgg,
    PromRangeFunc,
    VectorSelector,
    parse_promql,
)
from repro.tsdb.storage import TimeSeriesStore


class TestParser:
    def test_bare_metric(self):
        expr = parse_promql("node_up")
        assert isinstance(expr, VectorSelector)
        (m,) = expr.matchers
        assert m.name == METRIC_NAME_LABEL and m.value == "node_up"

    def test_metric_with_labels(self):
        expr = parse_promql('node_up{cluster="perlmutter", xname=~"x1.*"}')
        assert len(expr.matchers) == 3

    def test_label_only_selector(self):
        expr = parse_promql('{__name__="node_up"}')
        assert isinstance(expr, VectorSelector)

    def test_range_function(self):
        expr = parse_promql('rate(kafka_topic_messages_total{topic="t"}[5m])')
        assert isinstance(expr, PromRangeAgg)
        assert expr.func is PromRangeFunc.RATE
        assert expr.range_ns == minutes(5)

    def test_aggregation_both_syntaxes(self):
        a = parse_promql("sum by (xname) (node_temp_celsius)")
        b = parse_promql("sum(node_temp_celsius) by (xname)")
        assert a == b
        assert isinstance(a, VectorAgg)

    def test_comparison(self):
        expr = parse_promql("node_up == 0")
        assert isinstance(expr, BinOp)

    def test_arithmetic_chain(self):
        expr = parse_promql("avg(node_power_watts) / 1000 > 2")
        assert isinstance(expr, BinOp)

    @pytest.mark.parametrize("bad", ["", "sum(", "rate(m)", "m[5m]", "5", "(((m)"])
    def test_invalid(self, bad):
        with pytest.raises(QueryError):
            parse_promql(bad)

    def test_vector_vector_binop(self):
        expr = parse_promql("good_rate / total_rate")
        assert isinstance(expr, BinOp)
        assert isinstance(expr.lhs, VectorSelector)
        assert isinstance(expr.rhs, VectorSelector)

    def test_set_op_lowest_precedence(self):
        expr = parse_promql("burn_5m > 14.4 and burn_1h > 14.4")
        assert isinstance(expr, SetExpr)
        assert expr.op is SetOp.AND
        assert isinstance(expr.lhs, BinOp)
        assert isinstance(expr.rhs, BinOp)

    @pytest.mark.parametrize("word,op", [("or", SetOp.OR), ("unless", SetOp.UNLESS)])
    def test_or_unless(self, word, op):
        expr = parse_promql(f"a {word} b")
        assert isinstance(expr, SetExpr) and expr.op is op

    def test_set_op_chain_left_assoc(self):
        expr = parse_promql("a and b or c")
        assert expr.op is SetOp.OR
        assert isinstance(expr.lhs, SetExpr) and expr.lhs.op is SetOp.AND


@pytest.fixture
def engine():
    store = TimeSeriesStore()
    return store, PromQLEngine(store)


class TestInstantSelector:
    def test_latest_sample_within_lookback(self, engine):
        store, eng = engine
        store.ingest("m", {"i": "1"}, 1.0, seconds(10))
        store.ingest("m", {"i": "1"}, 2.0, seconds(20))
        samples = eng.query_instant("m", seconds(30))
        assert samples[0].value == 2.0

    def test_staleness_beyond_lookback(self, engine):
        store, eng = engine
        store.ingest("m", {}, 1.0, 0)
        assert eng.query_instant("m", minutes(6)) == []

    def test_label_filtering(self, engine):
        store, eng = engine
        store.ingest("m", {"x": "a"}, 1.0, 0)
        store.ingest("m", {"x": "b"}, 2.0, 0)
        samples = eng.query_instant('m{x="b"}', seconds(1))
        assert len(samples) == 1 and samples[0].value == 2.0


class TestRangeFunctions:
    def _fill_counter(self, store, values):
        for i, v in enumerate(values):
            store.ingest("c", {}, float(v), seconds(i * 15))

    def test_rate_simple(self, engine):
        store, eng = engine
        self._fill_counter(store, [0, 15, 30, 45, 60])
        samples = eng.query_instant("rate(c[1m])", seconds(60))
        # Left-open window (0s, 60s]: samples at 15..60, increase 45 over 60s.
        assert samples[0].value == pytest.approx(0.75)
        # Range functions drop the metric name.
        assert METRIC_NAME_LABEL not in samples[0].labels

    def test_rate_counter_reset(self, engine):
        store, eng = engine
        self._fill_counter(store, [100, 150, 10, 60])  # reset at sample 3
        samples = eng.query_instant("increase(c[1m])", seconds(45))
        # 100->150 (+50), reset, 10->60 (+50): increase = 60-100+150 = 110.
        assert samples[0].value == pytest.approx(110.0)

    def test_rate_needs_two_points(self, engine):
        store, eng = engine
        store.ingest("c", {}, 5.0, 0)
        assert eng.query_instant("rate(c[1m])", seconds(30)) == []

    def test_over_time_family(self, engine):
        store, eng = engine
        for i, v in enumerate([1.0, 3.0, 2.0]):
            store.ingest("g", {}, v, seconds(i))
        t = seconds(10)
        assert eng.query_instant("avg_over_time(g[1m])", t)[0].value == 2.0
        assert eng.query_instant("max_over_time(g[1m])", t)[0].value == 3.0
        assert eng.query_instant("min_over_time(g[1m])", t)[0].value == 1.0
        assert eng.query_instant("sum_over_time(g[1m])", t)[0].value == 6.0
        assert eng.query_instant("count_over_time(g[1m])", t)[0].value == 3.0
        assert eng.query_instant("last_over_time(g[1m])", t)[0].value == 2.0

    def test_delta(self, engine):
        store, eng = engine
        store.ingest("g", {}, 10.0, 0)
        store.ingest("g", {}, 4.0, seconds(30))
        assert eng.query_instant("delta(g[1m])", seconds(30))[0].value == -6.0


class TestAggregationAndBinops:
    def test_sum_by(self, engine):
        store, eng = engine
        store.ingest("t", {"cab": "x1", "n": "a"}, 1.0, 0)
        store.ingest("t", {"cab": "x1", "n": "b"}, 2.0, 0)
        store.ingest("t", {"cab": "x2", "n": "c"}, 5.0, 0)
        samples = eng.query_instant("sum by (cab) (t)", seconds(1))
        assert [(s.labels["cab"], s.value) for s in samples] == [
            ("x1", 3.0),
            ("x2", 5.0),
        ]

    def test_aggregation_strips_metric_name(self, engine):
        store, eng = engine
        store.ingest("t", {"a": "1"}, 1.0, 0)
        samples = eng.query_instant("sum(t)", seconds(1))
        assert samples[0].labels == LabelSet()

    def test_comparison_filters(self, engine):
        store, eng = engine
        store.ingest("up", {"j": "a"}, 1.0, 0)
        store.ingest("up", {"j": "b"}, 0.0, 0)
        samples = eng.query_instant("up == 0", seconds(1))
        assert len(samples) == 1 and samples[0].labels["j"] == "b"

    def test_arithmetic(self, engine):
        store, eng = engine
        store.ingest("w", {}, 1500.0, 0)
        samples = eng.query_instant("w / 1000", seconds(1))
        assert samples[0].value == 1.5

    def test_query_range(self, engine):
        store, eng = engine
        for i in range(5):
            store.ingest("g", {}, float(i), seconds(i * 30))
        series = eng.query_range("g", 0, seconds(120), seconds(30))
        assert len(series) == 1
        assert series[0].values() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_bad_range_params(self, engine):
        _, eng = engine
        with pytest.raises(QueryError):
            eng.query_range("g", 10, 0, 5)
        with pytest.raises(QueryError):
            eng.query_range("g", 0, 10, 0)


class TestVectorVectorBinops:
    def _fill(self, store):
        store.ingest("good", {"slo": "a"}, 90.0, 0)
        store.ingest("good", {"slo": "b"}, 50.0, 0)
        store.ingest("total", {"slo": "a"}, 100.0, 0)
        store.ingest("total", {"slo": "b"}, 100.0, 0)

    def test_division_matches_on_labels(self, engine):
        store, eng = engine
        self._fill(store)
        samples = eng.query_instant("good / total", seconds(1))
        assert [(s.labels["slo"], s.value) for s in samples] == [
            ("a", 0.9),
            ("b", 0.5),
        ]
        # Arithmetic between vectors drops the metric name.
        assert all(METRIC_NAME_LABEL not in s.labels for s in samples)

    def test_subtraction_then_division(self, engine):
        store, eng = engine
        self._fill(store)
        samples = eng.query_instant("(total - good) / total", seconds(1))
        assert [(s.labels["slo"], s.value) for s in samples] == [
            ("a", pytest.approx(0.1)),
            ("b", pytest.approx(0.5)),
        ]

    def test_unmatched_series_drop_out(self, engine):
        store, eng = engine
        store.ingest("good", {"slo": "a"}, 1.0, 0)
        store.ingest("total", {"slo": "b"}, 2.0, 0)
        assert eng.query_instant("good / total", seconds(1)) == []

    def test_duplicate_right_side_rejected(self, engine):
        store, eng = engine
        store.ingest("good", {"slo": "a"}, 1.0, 0)
        store.ingest("total_v1", {"slo": "a"}, 1.0, 0)
        store.ingest("total_v2", {"slo": "a"}, 1.0, 0)
        # The join key ignores __name__, so the regex selector yields two
        # right-hand series with the same key — many-to-one, rejected.
        with pytest.raises(QueryError):
            eng.query_instant('good / {__name__=~"total_.*"}', seconds(1))
        # With distinct join keys nothing matches and nothing errors.
        store.ingest("total", {"slo": "b"}, 2.0, 0)
        assert eng.query_instant("good / total", seconds(1)) == []

    def test_vector_comparison_filters_lhs(self, engine):
        store, eng = engine
        store.ingest("short", {"slo": "a"}, 20.0, 0)
        store.ingest("short", {"slo": "b"}, 5.0, 0)
        store.ingest("long", {"slo": "a"}, 10.0, 0)
        store.ingest("long", {"slo": "b"}, 10.0, 0)
        samples = eng.query_instant("short > long", seconds(1))
        assert len(samples) == 1
        assert samples[0].labels["slo"] == "a" and samples[0].value == 20.0

    def test_division_by_zero_is_nan(self, engine):
        store, eng = engine
        store.ingest("good", {"slo": "a"}, 1.0, 0)
        store.ingest("total", {"slo": "a"}, 0.0, 0)
        (sample,) = eng.query_instant("good / total", seconds(1))
        assert sample.value != sample.value  # NaN


class TestSetOperators:
    def _fill(self, store):
        store.ingest("burn_short", {"slo": "a"}, 20.0, 0)
        store.ingest("burn_short", {"slo": "b"}, 20.0, 0)
        store.ingest("burn_long", {"slo": "a"}, 16.0, 0)
        store.ingest("burn_long", {"slo": "b"}, 2.0, 0)

    def test_and_requires_both_windows(self, engine):
        store, eng = engine
        self._fill(store)
        samples = eng.query_instant(
            "burn_short > 14.4 and burn_long > 14.4", seconds(1)
        )
        # Only slo=a exceeds the factor in *both* windows.
        assert len(samples) == 1 and samples[0].labels["slo"] == "a"

    def test_and_keeps_lhs_values(self, engine):
        store, eng = engine
        self._fill(store)
        (sample,) = eng.query_instant(
            "burn_short > 14.4 and burn_long > 14.4", seconds(1)
        )
        assert sample.value == 20.0  # lhs sample survives unchanged

    def test_or_unions_without_duplicates(self, engine):
        store, eng = engine
        self._fill(store)
        samples = eng.query_instant("burn_short or burn_long", seconds(1))
        assert sorted(s.labels["slo"] for s in samples) == ["a", "b"]
        assert all(s.value == 20.0 for s in samples)  # lhs wins on overlap

    def test_unless_removes_matches(self, engine):
        store, eng = engine
        self._fill(store)
        samples = eng.query_instant(
            "burn_short unless (burn_long > 14.4)", seconds(1)
        )
        assert len(samples) == 1 and samples[0].labels["slo"] == "b"


class TestCounterResetRegression:
    """An ingester restart resets its counters; rate/increase must
    compensate, never going negative or spiking.  Burn rates divide
    these, so a bad reset here becomes a false page downstream."""

    def _fill(self, store, values, step_s=15):
        for i, v in enumerate(values):
            store.ingest("c", {}, float(v), seconds(i * step_s))

    def test_increase_single_reset(self, engine):
        store, eng = engine
        self._fill(store, [10, 2])
        (sample,) = eng.query_instant("increase(c[1m])", seconds(15))
        # 10 -> restart -> 2: the new counter contributes its own value.
        assert sample.value == pytest.approx(2.0)

    def test_increase_never_negative(self, engine):
        store, eng = engine
        self._fill(store, [100, 150, 10, 60])
        (sample,) = eng.query_instant("increase(c[1m])", seconds(45))
        assert sample.value >= 0.0
        assert sample.value == pytest.approx(110.0)  # 50 before + 60 after

    def test_increase_multiple_resets(self, engine):
        store, eng = engine
        self._fill(store, [5, 10, 3, 7, 1, 4])
        (sample,) = eng.query_instant("increase(c[2m])", seconds(75))
        # Segments: +5, reset(+3), +4, reset(+1), +3 = 16.
        assert sample.value == pytest.approx(16.0)

    def test_rate_is_increase_over_window(self, engine):
        store, eng = engine
        self._fill(store, [100, 150, 10, 60])
        (inc,) = eng.query_instant("increase(c[1m])", seconds(45))
        (rate,) = eng.query_instant("rate(c[1m])", seconds(45))
        assert rate.value == pytest.approx(inc.value / 60.0)

    def test_reset_no_spike(self, engine):
        store, eng = engine
        # Steady 1/s counter that restarts mid-window: the reset must
        # not be read as a huge instantaneous increase.
        self._fill(store, [0, 15, 30, 0, 15, 30], step_s=15)
        (sample,) = eng.query_instant("rate(c[2m])", seconds(75))
        assert sample.value <= 1.0 + 1e-9

    def test_error_ratio_stays_in_unit_range_across_reset(self, engine):
        store, eng = engine
        # good/total counters both reset (same restart); the derived
        # SLI must stay within [0, 1].
        for i, (g, t) in enumerate([(90, 100), (180, 200), (9, 10), (90, 100)]):
            store.ingest("good", {"slo": "x"}, float(g), seconds(i * 15))
            store.ingest("total", {"slo": "x"}, float(t), seconds(i * 15))
        (ratio,) = eng.query_instant(
            "increase(good[1m]) / increase(total[1m])", seconds(45)
        )
        assert 0.0 <= ratio.value <= 1.0
