"""Property: one read sliced per step equals an independent read per instant.

``PromQLEngine.query_range`` reads the store once per distinct selector
(whatever leaves sit on it: the instant vector, range functions over any
windows), finds every step's window in every series with ``searchsorted``
and carries (series × steps) arrays up the expression.  The reference here is the evaluator it replaced, kept
as plain loops over Python lists: at every grid instant it selects that
instant's own window, builds one ``(labels, value)`` pair per series and
reduces — nothing is shared between instants.

What is compared how:

* ``==`` on ``Series`` for selectors, ``count/min/max/last_over_time``,
  ``delta``, every vector aggregation (``sum``/``avg`` add a step's
  vector top to bottom, one IEEE addition after another, and a vector is
  in ascending label order out of ``select`` and out of an aggregation —
  the reference does the same),
  comparisons, joins, set operators, ``absent`` and ``topk``;
* ``rate``/``increase``/``sum_over_time``/``avg_over_time`` are ``==`` on
  integer-valued samples (every counter in this repo) and agree to a
  relative 1e-9 on arbitrary floats: the engine takes a window's resets
  from a running per-series total and its sum from ``ufunc.reduceat``,
  where the reference adds the window's own numbers left to right.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import QueryError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet, MatchOp
from repro.common.simclock import minutes, seconds
from repro.common.vector import Sample, Series
from repro.common.vectorlang import VectorOp
from repro.tsdb.promql import (
    DEFAULT_LOOKBACK_NS,
    PromAbsent,
    PromQLEngine,
    PromRangeAgg,
    PromRangeFunc,
    VectorSelector,
    parse_promql,
)
from repro.tsdb.storage import TimeSeriesStore
from tests import test_vector_reference as shared
from tests.test_vector_reference import add_up, name_dropped

#: Timestamps, steps, ranges and the lookback are whole seconds, so
#: samples land exactly on window edges all the time.
SPAN_S = 40

GROUPINGS = ("", "by (job) ", "by (job, inst) ", "without (inst) ", "without (job, inst) ")

#: ``==`` whatever the sample values.
EXACT = (
    "m",
    'm{{job="a"}}',
    '{{__name__=~"m|n", inst!="0"}}',
    "count_over_time(m[{r}s])",
    "last_over_time(m[{r}s])",
    "min_over_time(m[{r}s])",
    "max_over_time(m[{r}s])",
    "delta(m[{r}s])",
    'count_over_time({{__name__=~"m|n"}}[{r}s])',
    *(f"{op.value} {grouping}(m)" for op in VectorOp for grouping in GROUPINGS),
    *(f"{op.value} {grouping}(max_over_time(m[{{r}}s]))" for op in VectorOp
      for grouping in GROUPINGS[:3]),
    "m > 7",
    "7 > m",
    "m == 3",
    "m != 3",
    "m >= 5",
    "m <= 5",
    "m * 3",
    "100 - m",
    "m / 4",
    "12 / m",
    "m / 0",
    "m + n",
    "m - n",
    "m * n",
    "m / n",
    "m > n",
    "m <= n",
    "m == n",
    "delta(m[{r}s]) / count_over_time(n[{r}s])",
    "m and n",
    "m or n",
    "m unless n",
    "m > 5 and n > 5",
    "m > 12 or n < 4",
    "m unless n > 8",
    "m and n or m > 15",
    'absent(m{{job="a"}})',
    'absent(m{{job="b", inst="2"}})',
    "absent(nope)",
    "topk(2, m)",
    "bottomk(2, m)",
    "topk(1, sum by (job) (m))",
    "bottomk(3, max_over_time(m[{r}s]) * 2)",
    "sum(avg by (job) (m))",
    "sum(sum by (job) (m))",
    "avg(sum by (job) (m * 0.1))",
    "avg(sum by (inst) (m))",
    "max(sum by (job, inst) (m) * 2) / 4",
    "count(sum by (job, inst) (m) > 5)",
    "min by (job) (max without (job) (m))",
    "sum(topk(2, m))",
    "min(m / (n - 5))",
    "max by (job) (m / (n - 5))",
    "sum by (job) (m) / sum by (job) (n)",
    "sum by (inst) (m) > sum by (inst) (n)",
)

#: ``==`` on integer-valued samples, 1e-9 relative otherwise.
ROUNDED = (
    "rate(m[{r}s])",
    "increase(m[{r}s])",
    "sum_over_time(m[{r}s])",
    "avg_over_time(m[{r}s])",
    'increase({{__name__=~"m|n"}}[{r}s])',
    "sum by (job) (rate(m[{r}s]))",
    "avg without (inst) (sum_over_time(m[{r}s]))",
    "max(avg_over_time(m[{r}s]))",
    "increase(m[{r}s]) / increase(n[{r}s])",
    "rate(m[{r}s]) * 60",
)

#: Shapes whose filters sit on top of a rounded leaf: integer samples only.
ON_INTEGERS = (
    "increase(m[{r}s]) > 4",
    "topk(2, rate(m[{r}s]))",
    "sum_over_time(m[{r}s]) >= sum_over_time(n[{r}s])",
    # The SLO burn rule (slo.manager): good and total windows twice each.
    "(increase(n[{r}s]) - increase(m[{r}s])) / (increase(n[{r}s]) > 0) / 0.5",
    "increase(m[{r}s]) > 2 and increase(m[9s]) > 2",
    "avg_over_time(m[{r}s]) > 6 unless rate(n[{r}s]) > 0",
)


# ----------------------------------------------------------------------
# The per-instant reference: PromQL's leaves under the shared vector layer
# ----------------------------------------------------------------------
def _ref_window(func: PromRangeFunc, values: list[float], range_ns: int):
    if func is PromRangeFunc.COUNT_OVER_TIME:
        return float(len(values))
    if func is PromRangeFunc.LAST_OVER_TIME:
        return values[-1]
    if func is PromRangeFunc.SUM_OVER_TIME:
        return add_up(values)
    if func is PromRangeFunc.AVG_OVER_TIME:
        return add_up(values) / len(values)
    if func is PromRangeFunc.MIN_OVER_TIME:
        return min(values)
    if func is PromRangeFunc.MAX_OVER_TIME:
        return max(values)
    if len(values) < 2:
        return None
    if func is PromRangeFunc.DELTA:
        return values[-1] - values[0]
    resets = add_up(prev for prev, cur in zip(values, values[1:]) if cur < prev)
    increase = values[-1] - values[0] + resets
    if func is PromRangeFunc.INCREASE:
        return increase
    return increase / (range_ns / 1e9)


def _ref_leaf(source, lookback_ns: int):
    """PromQL's own nodes at one instant, each from that instant's own
    read, in the ascending label order ``select`` returns."""

    def leaf(expr, t: int) -> list[tuple[LabelSet, float]]:
        if isinstance(expr, VectorSelector):
            lo, hi = t - lookback_ns + 1, t + 1
            out = []
            for labels, ts, vals in source.select(expr.matchers, lo, hi):
                assert len(ts) and all(lo <= int(x) < hi for x in ts)
                out.append((labels, float(vals[-1])))
            return out
        if isinstance(expr, PromRangeAgg):
            lo, hi = t - expr.range_ns + 1, t + 1
            out = []
            for labels, ts, vals in source.select(expr.selector.matchers, lo, hi):
                assert len(ts) and all(lo <= int(x) < hi for x in ts)
                value = _ref_window(expr.func, [float(v) for v in vals], expr.range_ns)
                if value is not None:
                    out.append((name_dropped(labels), value))
            return out
        assert isinstance(expr, PromAbsent)
        if leaf(expr.selector, t):
            return []
        labels = {
            m.name: m.value
            for m in expr.selector.matchers
            if m.op is MatchOp.EQ and m.name != METRIC_NAME_LABEL and m.value
        }
        return [(LabelSet(labels), 1.0)]

    return leaf


def reference_instant(source, lookback_ns: int, query: str, t: int) -> list[Sample]:
    return shared.reference_instant(
        parse_promql(query), t, _ref_leaf(source, lookback_ns)
    )


def reference_range(
    source, lookback_ns: int, query: str, start: int, end: int, step: int
) -> list[Series]:
    return shared.reference_range(
        parse_promql(query), start, end, step, _ref_leaf(source, lookback_ns)
    )


def outcome(compute):
    """A query's result, or the fact that it refused a duplicate match."""
    try:
        return compute()
    except QueryError:
        return "QueryError"


def nan_as_text(result):
    """NaN never equals itself; spell it so ``==`` can see two of them."""
    if isinstance(result, str):
        return result
    return [
        (s.labels, tuple((t, "NaN" if v != v else v) for t, v in s.points))
        for s in result
    ]


def assert_close(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert [(s.labels, s.timestamps()) for s in got] == [
        (s.labels, s.timestamps()) for s in want
    ]
    for g, w in zip(got, want):
        for a, b in zip(g.values(), w.values()):
            both_nan = a != a and b != b  # 0/0 on both sides, as in nan_as_text
            assert both_nan or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (g.labels, a, b)


# ----------------------------------------------------------------------
# Generated stores
# ----------------------------------------------------------------------
def series_strategy(values):
    return st.lists(
        st.tuples(
            st.sampled_from(["m", "n"]),
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["0", "1", "2"]),
            # Sparse enough for gaps longer than the lookback, for series
            # that start late or stop early, and (sorted below) dense
            # enough for equal timestamps and for counter resets.
            st.lists(
                st.tuples(st.integers(0, SPAN_S), values), min_size=1, max_size=12
            ),
        ),
        min_size=1,
        max_size=7,
        unique_by=lambda s: s[:3],
    )


INTEGERS = st.integers(0, 20).map(float)
FLOATS = st.floats(0.001, 1000.0, allow_nan=False, allow_infinity=False)


def to_store(raw_series) -> TimeSeriesStore:
    store = TimeSeriesStore()
    for name, job, inst, samples in raw_series:
        for ts, value in sorted(samples, key=lambda pair: pair[0]):
            assert store.ingest(name, {"job": job, "inst": inst}, value, int(seconds(ts)))
    return store


grid = dict(
    step_s=st.integers(1, 6),
    range_s=st.integers(1, 12),
    lookback_s=st.integers(1, 9),
    start_s=st.integers(0, 25),
    steps=st.integers(0, 9),
)


def run_both(raw_series, query, step_s, range_s, lookback_s, start_s, steps):
    store = to_store(raw_series)
    text = query.format(r=range_s)
    lookback = int(seconds(lookback_s))
    start, step = int(seconds(start_s)), int(seconds(step_s))
    # Off-grid ends too: the last instant is the last one <= end.
    end = start + steps * step + step // 2
    engine = PromQLEngine(store, lookback_ns=lookback)
    got = outcome(lambda: engine.query_range(text, start, end, step))
    want = outcome(lambda: reference_range(store, lookback, text, start, end, step))
    return got, want


class TestRangeEqualsPerInstant:
    @given(raw_series=series_strategy(FLOATS), query=st.sampled_from(EXACT), **grid)
    @settings(max_examples=400, deadline=None)
    def test_exact_on_any_floats(self, raw_series, query, **at):
        got, want = run_both(raw_series, query, **at)
        assert nan_as_text(got) == nan_as_text(want)

    @given(
        raw_series=series_strategy(INTEGERS),
        query=st.sampled_from(EXACT + ROUNDED + ON_INTEGERS),
        **grid,
    )
    @settings(max_examples=400, deadline=None)
    def test_exact_on_integer_valued_samples(self, raw_series, query, **at):
        got, want = run_both(raw_series, query, **at)
        assert nan_as_text(got) == nan_as_text(want)

    @given(raw_series=series_strategy(FLOATS), query=st.sampled_from(ROUNDED), **grid)
    @settings(max_examples=200, deadline=None)
    @example(  # 0/0 on both sides: NaN matches NaN
        raw_series=[("m", "b", "0", [(0, 1.0), (0, 1.0)]), ("n", "b", "0", [(0, 1.0), (0, 1.0)])],
        query="increase(m[{r}s]) / increase(n[{r}s])",
        step_s=1, range_s=1, lookback_s=1, start_s=0, steps=0,
    )
    def test_rounded_functions_close_on_any_floats(self, raw_series, query, **at):
        got, want = run_both(raw_series, query, **at)
        assert_close(got, want)

    @given(
        raw_series=series_strategy(INTEGERS),
        query=st.sampled_from(EXACT + ROUNDED + ON_INTEGERS),
        range_s=st.integers(1, 12),
        lookback_s=st.integers(1, 9),
        at_s=st.integers(0, SPAN_S + 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_query_instant_is_the_one_step_case(
        self, raw_series, query, range_s, lookback_s, at_s
    ):
        store = to_store(raw_series)
        text, t = query.format(r=range_s), int(seconds(at_s))
        lookback = int(seconds(lookback_s))
        engine = PromQLEngine(store, lookback_ns=lookback)
        vector = outcome(lambda: engine.query_instant(text, t))
        want = outcome(lambda: reference_instant(store, lookback, text, t))
        as_text = lambda v: v if isinstance(v, str) else [  # noqa: E731
            (s.labels, "NaN" if s.value != s.value else s.value, s.timestamp_ns)
            for s in v
        ]
        assert as_text(vector) == as_text(want)
        if isinstance(vector, str):
            return
        series = engine.query_range(text, t, t, int(seconds(1)))
        by_labels = lambda samples: sorted(  # noqa: E731
            as_text(samples), key=lambda item: (item[0].items_tuple(), str(item[1]))
        )
        assert by_labels(vector) == by_labels(
            [Sample(s.labels, v, t) for s in series for _t, v in s.points]
        )


# ----------------------------------------------------------------------
# Pinned edges
# ----------------------------------------------------------------------
def store_of(*samples) -> TimeSeriesStore:
    store = TimeSeriesStore()
    for name, labels, value, ts in samples:
        assert store.ingest(name, labels, float(value), ts)
    return store


class TestWindowEdges:
    def test_lookback_edges_at_the_default_five_minutes(self):
        t = int(minutes(20))
        store = store_of(
            ("on_t", {}, 1, t),
            ("on_far_edge", {}, 2, t - DEFAULT_LOOKBACK_NS),
            ("just_inside", {}, 3, t - DEFAULT_LOOKBACK_NS + 1),
            ("after_t", {}, 4, t + 1),
        )
        engine = PromQLEngine(store)
        names = lambda q: [  # noqa: E731
            s.labels[METRIC_NAME_LABEL] for s in engine.query_instant(q, t)
        ]
        assert names('{__name__=~".+"}') == ["just_inside", "on_t"]
        # The same edges at the second of three steps of a range query.
        step = int(minutes(7))
        series = engine.query_range('{__name__=~".+"}', t - step, t + step, step)
        at_t = sorted(s.labels[METRIC_NAME_LABEL] for s in series if t in s.timestamps())
        assert at_t == ["just_inside", "on_t"]

    @pytest.mark.parametrize("func", [f.value for f in PromRangeFunc])
    def test_range_edges(self, func):
        t, r = int(seconds(100)), int(seconds(10))
        store = store_of(
            ("c", {}, 50, t - r),  # on the far edge: outside (t - r, t]
            ("c", {}, 3, t - r + 1),
            ("c", {}, 9, t - 5),
            ("c", {}, 4, t),  # on t: inside, and a reset
            ("c", {}, 70, t + 1),
        )
        engine = PromQLEngine(store)
        query = f"{func}(c[10s])"
        (sample,) = engine.query_instant(query, t)
        want = {
            "rate": 1.0, "increase": 10.0, "delta": 1.0, "avg_over_time": 16 / 3,
            "min_over_time": 3.0, "max_over_time": 9.0, "sum_over_time": 16.0,
            "count_over_time": 3.0, "last_over_time": 4.0,
        }[func]
        assert sample.value == want
        args = (t - int(seconds(30)), t + int(seconds(30)), int(seconds(5)))
        assert engine.query_range(query, *args) == reference_range(
            store, DEFAULT_LOOKBACK_NS, query, *args
        )

    def test_equal_timestamps_are_both_in_the_window_and_the_later_one_is_last(self):
        store = store_of(("m", {}, 1, 100), ("m", {}, 2, 100), ("m", {}, 5, 100))
        engine = PromQLEngine(store)
        assert [s.value for s in engine.query_instant("m", 100)] == [5.0]
        assert [s.value for s in engine.query_instant("count_over_time(m[1s])", 100)] == [3.0]
        assert [s.value for s in engine.query_instant("delta(m[1s])", 100)] == [4.0]
        assert engine.query_instant("m", 99) == []

    def test_a_gap_longer_than_the_lookback_is_a_gap_in_the_series(self):
        store = store_of(("m", {}, 1, 0), ("m", {}, 2, int(minutes(20))))
        (series,) = PromQLEngine(store).query_range(
            "m", 0, int(minutes(22)), int(minutes(2))
        )
        assert series.timestamps() == [int(minutes(x)) for x in (0, 2, 4, 20, 22)]
        assert series.values() == [1.0, 1.0, 1.0, 2.0, 2.0]


class TestPinnedSemantics:
    def test_division_by_zero_is_nan(self):
        store = store_of(("m", {"i": "1"}, 3, 0), ("z", {"i": "1"}, 0, 0))
        engine = PromQLEngine(store)
        for query in ("m / 0", "m / z", "z / z", "5 / z"):
            (sample,) = engine.query_instant(query, 0)
            assert math.isnan(sample.value), query
            (series,) = engine.query_range(query, 0, 10, 5)
            assert all(math.isnan(v) for v in series.values())

    def test_points_and_samples_hold_python_numbers(self):
        store = store_of(("m", {"i": "1"}, 3, 0), ("m", {"i": "2"}, 4, 0))
        engine = PromQLEngine(store)
        for query in ("m", "sum(m)", "rate(m[5m])", "m > 1", "count(m)", "absent(x)"):
            for series in engine.query_range(query, 0, 20, 10):
                for t, v in series.points:
                    assert type(t) is int and type(v) is float, query
            for sample in engine.query_instant(query, 10):
                assert type(sample.value) is float and type(sample.timestamp_ns) is int

    def test_duplicate_join_keys_raise_only_where_both_are_present(self):
        # m{i=1} and n{i=1} share the join key {i=1}; they overlap at 10s only.
        store = store_of(
            ("m", {"i": "1"}, 1, 0),
            ("n", {"i": "1"}, 2, int(seconds(10))),
            ("k", {"i": "1"}, 4, 0),
            ("k", {"i": "1"}, 4, int(seconds(10))),
            ("k", {"i": "1"}, 4, int(seconds(20))),
        )
        engine = PromQLEngine(store, lookback_ns=int(seconds(11)))
        both = '{__name__=~"m|n"}'
        for query in (f"k * {both}", f"{both} * k", f"{both} > k"):
            with pytest.raises(QueryError):
                engine.query_range(query, 0, int(seconds(20)), int(seconds(10)))
            with pytest.raises(QueryError):
                engine.query_instant(query, int(seconds(10)))
        # Taking turns is fine: m alone at 0s, n alone at 20s.
        step = int(seconds(20))
        (series,) = engine.query_range(f"k * {both}", 0, step, step)
        assert series.labels == LabelSet({"i": "1"})
        assert series.points == ((0, 4.0), (step, 8.0))
        (series,) = engine.query_range(f"{both} * k", 0, step, step)
        assert series.points == ((0, 4.0), (step, 8.0))
        # Set operators never refuse duplicates.
        assert len(engine.query_instant(f"{both} and k", int(seconds(10)))) == 2

    def test_query_instant_keeps_rank_order_for_topk(self):
        store = store_of(*(("m", {"i": str(i)}, v, 0) for i, v in enumerate([3, 9, 1, 9, 5])))
        engine = PromQLEngine(store)
        top = engine.query_instant("topk(3, m)", 1)
        assert [(s.labels["i"], s.value) for s in top] == [("3", 9.0), ("1", 9.0), ("4", 5.0)]
        bottom = engine.query_instant("bottomk(2, m)", 1)
        assert [(s.labels["i"], s.value) for s in bottom] == [("2", 1.0), ("0", 3.0)]
        # A range query has no rank to keep: series come in label order.
        series = engine.query_range("topk(3, m)", 1, 1, 1)
        assert [s.labels["i"] for s in series] == ["1", "3", "4"]

    def test_sum_adds_in_ascending_label_order(self):
        values = [0.1, 1e16, -1e16, 0.3, 0.7]
        store = store_of(*(("m", {"i": str(i)}, v, 0) for i, v in enumerate(values)))
        engine = PromQLEngine(store)
        assert add_up(values) != add_up(reversed(values))
        assert engine.query_instant("sum(m)", 0)[0].value == add_up(values)
        assert engine.query_instant("avg(m)", 0)[0].value == add_up(values) / 5
        assert engine.query_range("sum(m)", 0, 0, 1)[0].values() == [add_up(values)]

    # min/max as Python's min()/max() have them: the first present value,
    # replaced only by a strictly better one.  Each group's values are in
    # ascending label order (i); compared by float.hex and sign.
    EXTREMES = {
        # group: (values, min, max)
        "nan_first": ([math.nan, 1.0, 3.0], math.nan, math.nan),
        "nan_later": ([1.0, math.nan, 3.0], 1.0, 3.0),
        "zero_then_minus_zero": ([0.0, -0.0], 0.0, 0.0),
        "minus_zero_then_zero": ([-0.0, 0.0], -0.0, -0.0),
        "zeros_below_one": ([1.0, -0.0, 0.0], -0.0, 1.0),
        "infinities": ([1.0, math.inf, -math.inf, math.nan], -math.inf, math.inf),
        "all_nan": ([math.nan, math.nan], math.nan, math.nan),
    }

    @staticmethod
    def bits(value: float) -> tuple[str, float]:
        return float.hex(value), math.copysign(1.0, value)

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_min_and_max_keep_the_first_of_equals_and_a_first_nan(self, op):
        for group, (values, *want) in self.EXTREMES.items():
            engine = PromQLEngine(
                store_of(*(("m", {"g": group, "i": str(i)}, v, 0) for i, v in enumerate(values)))
            )
            expected = self.bits(want[op == "max"])
            (sample,) = engine.query_instant(f"{op}(m)", 0)
            assert self.bits(sample.value) == expected, (op, group)
            (series,) = engine.query_range(f"{op}(m)", 0, 0, 1)
            assert [self.bits(v) for v in series.values()] == [expected], (op, group)

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_min_and_max_by_group(self, op):
        store = store_of(
            *(
                ("m", {"g": group, "i": str(i)}, v, 0)
                for group, (values, *_want) in self.EXTREMES.items()
                for i, v in enumerate(values)
            )
        )
        got = {
            s.labels["g"]: self.bits(s.value)
            for s in PromQLEngine(store).query_instant(f"{op} by (g) (m)", 0)
        }
        assert got == {
            group: self.bits(want[op == "max"])
            for group, (_values, *want) in self.EXTREMES.items()
        }

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_a_group_absent_at_a_step_and_a_nan_first_only_where_present(self, op):
        # Group "a" has a value at 0s only.  In group "b", i=0 (NaN) is
        # present at 0s only, so the NaN is first there and absent at 10s.
        step = int(seconds(10))
        store = store_of(
            ("m", {"g": "a", "i": "0"}, -0.0, 0),
            ("m", {"g": "b", "i": "0"}, math.nan, 0),
            ("m", {"g": "b", "i": "1"}, 2.0, 0),
            ("m", {"g": "b", "i": "1"}, -0.0, step),
            ("m", {"g": "b", "i": "2"}, 0.0, step),
        )
        engine = PromQLEngine(store, lookback_ns=int(seconds(5)))
        got = {
            s.labels["g"]: [(t, self.bits(v)) for t, v in s.points]
            for s in engine.query_range(f"{op} by (g) (m)", 0, step, step)
        }
        assert got == {
            "a": [(0, self.bits(-0.0))],
            "b": [(0, self.bits(math.nan)), (step, self.bits(-0.0))],
        }

    def test_an_aggregation_hands_on_its_groups_in_ascending_label_order(self):
        # Series sort by (i, job); their groups by job sort the other way
        # round from the order they are first met in.
        by_job = {"c": 0.1, "b": 1e16, "a": -1e16}
        store = store_of(
            *(("m", {"i": str(i), "job": job}, v, 0) for i, (job, v) in enumerate(by_job.items()))
        )
        engine = PromQLEngine(store)
        in_label_order = add_up(by_job[job] for job in sorted(by_job))
        assert in_label_order != add_up(by_job.values())
        assert engine.query_instant("sum(sum by (job) (m))", 0)[0].value == in_label_order


# ----------------------------------------------------------------------
# One read per distinct leaf
# ----------------------------------------------------------------------
class CountingSource:
    """A ``MetricSource`` double that records the reads it serves."""

    def __init__(self, inner):
        self._inner = inner
        self.selects = []

    def select(self, matchers, start_ns, end_ns):
        self.selects.append((tuple(matchers), start_ns, end_ns))
        return self._inner.select(matchers, start_ns, end_ns)


class TestOneReadPerLeaf:
    LOOKBACK = int(seconds(8))

    def source(self):
        store = TimeSeriesStore()
        for name in ("m", "n"):
            for i in range(3):
                for s in range(0, 60, 3):
                    store.ingest(name, {"inst": str(i)}, float(s), int(seconds(s)))
        return CountingSource(store)

    @pytest.mark.parametrize("steps", [1, 2, 7, 40])
    @pytest.mark.parametrize(
        "query,selectors",
        [
            ("m", 1),
            ("sum by (inst) (m) * 2 > 0", 1),
            ("max(sum by (inst) (rate(m[5s])))", 1),
            ("rate(m[5s]) / rate(n[5s])", 2),
            ("increase(m[5s]) / increase(m[5s])", 1),
            ("increase(m[5s]) / increase(m[6s])", 1),
            ("rate(m[5s]) + m", 1),
            ("m > 1 and m < 50", 1),
            ("absent(m) or m", 1),
            ('m{inst="1"} or m', 2),
            ("(increase(n[9s]) - increase(m[9s])) / (increase(n[9s]) > 0) / 0.5", 2),
            ("increase(m[5s]) > 1 and increase(m[9s]) > 1", 1),
            ("topk(2, avg_over_time(m[5s])) unless min_over_time(m[5s]) > 3", 1),
        ],
    )
    def test_one_select_per_distinct_leaf_whatever_the_step_count(
        self, query, selectors, steps
    ):
        """Leaves over one selector — the instant vector, range functions
        over whatever windows — share its one read."""
        source = self.source()
        start, step = int(seconds(10)), int(seconds(1))
        end = start + (steps - 1) * step
        PromQLEngine(source, self.LOOKBACK).query_range(query, start, end, step)
        assert len(source.selects) == selectors

    def test_the_one_read_spans_the_union_of_the_windows_and_no_more(self):
        source = self.source()
        start, end, step = int(seconds(10)), int(seconds(31)), int(seconds(5))
        last = int(seconds(30))  # the last instant <= end
        engine = PromQLEngine(source, self.LOOKBACK)
        engine.query_range("m", start, end, step)
        engine.query_range("sum_over_time(m[7s])", start, end, step)
        # Leaves sharing a selector: the widest window any of them asks.
        engine.query_range("rate(m[3s]) + m", start, end, step)
        engine.query_range("m unless increase(m[11s]) > delta(m[9s])", start, end, step)
        assert [(lo, hi) for _m, lo, hi in source.selects] == [
            (start - self.LOOKBACK + 1, last + 1),
            (start - int(seconds(7)) + 1, last + 1),
            (start - self.LOOKBACK + 1, last + 1),
            (start - int(seconds(11)) + 1, last + 1),
        ]

    def test_query_instant_is_one_read_of_one_window(self):
        source = self.source()
        t = int(seconds(20))
        engine = PromQLEngine(source, self.LOOKBACK)
        engine.query_instant("sum(m)", t)
        engine.query_instant("rate(m[5s]) / rate(m[5s])", t)
        assert [(lo, hi) for _m, lo, hi in source.selects] == [
            (t - self.LOOKBACK + 1, t + 1),
            (t - int(seconds(5)) + 1, t + 1),
        ]

    def test_the_engine_never_writes_into_what_it_read(self):
        store = TimeSeriesStore()
        for s in range(0, 60, 3):
            store.ingest("m", {}, float(60 - s), int(seconds(s)))

        class ReadOnly:
            def select(self, matchers, start_ns, end_ns):
                out = []
                for labels, ts, vals in store.select(matchers, start_ns, end_ns):
                    ts, vals = ts.view(), vals.view()
                    ts.flags.writeable = vals.flags.writeable = False
                    out.append((labels, ts, vals))
                return out

        engine = PromQLEngine(ReadOnly(), self.LOOKBACK)
        for func in PromRangeFunc:
            engine.query_range(f"{func.value}(m[9s])", 0, int(seconds(60)), int(seconds(4)))
        engine.query_range("sum(m) / 0 or m", 0, int(seconds(60)), int(seconds(4)))
        assert np.array_equal(
            store.select(parse_promql("m").matchers, 0, int(seconds(60)))[0][2],
            [float(60 - s) for s in range(0, 60, 3)],
        )
