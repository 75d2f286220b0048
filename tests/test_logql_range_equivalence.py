"""Property: one read sliced per step equals an independent read per instant.

``LogQLEngine.query_range`` reads the store once per distinct range
aggregation and fills every step's window from that read.  The reference
here is the evaluator it replaced, kept as plain loops: at every grid
instant it selects that instant's own window ``(t - range, t]``, runs each
entry through the pipeline, builds a label set per entry and reduces — no
shared state between instants; everything above a range aggregation is
the shared per-instant vector layer (``tests/test_vector_reference.py``).
``==`` on ``Series`` must hold: counts and bytes are exact integers, and
the float sums are pinned by emitting a range aggregation's vector in
ascending label order, adding a vector up one by one in that order, and
summing unwrapped values in (timestamp, arrival) order, which is what the
reference does.

The same comparison runs over three stores, because a wide read also has
to come back right from each of them: a bare ``LokiStore`` with sealed
and open chunks, an RF-3 ring with one replica behind (its merges take
the slow path), and a tiered store whose early chunks are sealed, shipped
and compacted.

The shapes covered are scalar ``BinOp`` chains and nested ``VectorAgg``
over one range aggregation, and — the vector layer being PromQL's —
vector↔vector arithmetic and comparisons, ``and``/``or``/``unless`` and
``topk``/``bottomk`` over two.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.labels import LabelSet
from repro.common.simclock import NANOS_PER_SECOND, SimClock, hours, seconds
from repro.common.vector import Sample, Series
from repro.loki.chunks import ChunkPolicy
from repro.loki.logql.ast import RangeAgg, RangeFunc, UnwrapStage
from repro.loki.logql.engine import LogQLEngine
from repro.loki.logql.parser import parse
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore
from repro.objstore import (
    ChunkShipper,
    Compactor,
    ObjectStore,
    ShipperIndex,
    StoreGateway,
    TieredLokiStore,
)
from repro.queryx.bloom import BloomStore
from repro.ring.cluster import RingLokiCluster
from tests import test_vector_reference as shared
from tests.tracing import off_tracer

#: Small enough that a stream of a dozen lines seals a chunk or two.
POLICY = ChunkPolicy(target_size_bytes=200, max_age_ns=hours(2))

#: Timestamps, steps and ranges are whole seconds, so entries land
#: exactly on window edges all the time.
SPAN_S = 40

LINES = (
    '{"level": "error", "latency_ms": 12.5, "msg": "disk I/O error"}',
    '{"level": "warn", "latency_ms": 3, "msg": "slow"}',
    '{"level": "info", "latency_ms": "n/a", "msg": "ok"}',
    'level=error latency_ms=7.25 msg="link flap"',
    "level=warn latency_ms=0.1 msg=ok",
    "[warn] took 12 ms",
    "[error] took 250 ms",
    "ok heartbeat",
    "",
)

QUERIES = (
    'count_over_time({{app=~".+"}}[{r}s])',
    'rate({{app="fm"}}[{r}s])',
    'bytes_over_time({{app=~".+"}} |= "error" [{r}s])',
    'bytes_rate({{app=~".+"}} != "ok" [{r}s])',
    'count_over_time({{app=~".+"}} |~ "err.r|w.rn" !~ "flap" [{r}s])',
    'sum by (app) (rate({{app=~".+"}}[{r}s]))',
    'sum(bytes_rate({{app=~".+"}}[{r}s]))',
    'sum by (level) (count_over_time({{app=~".+"}} | json | level=~"error|warn" [{r}s]))',
    'sum(rate({{app=~".+"}} | json [{r}s]))',
    'sum_over_time({{app=~".+"}} | json | unwrap latency_ms [{r}s])',
    'avg_over_time({{app=~".+"}} | logfmt | unwrap latency_ms [{r}s])',
    'max_over_time({{app=~".+"}} | json | unwrap latency_ms [{r}s])',
    'min_over_time({{app=~".+"}} | logfmt | latency_ms > 0.5 | unwrap latency_ms [{r}s])',
    'avg by (app) (avg_over_time({{app=~".+"}} | logfmt | unwrap latency_ms [{r}s]))',
    'sum by (host) (sum_over_time({{app=~".+"}} | pattern "[<level>] took <ms> ms" | unwrap ms [{r}s]))',
    'count_over_time({{app=~".+"}} | pattern "[<level>] took <ms> ms" | level="warn" [{r}s])',
    'sum without (host) (bytes_over_time({{app=~".+"}} | json | line_format "{{{{.level}}}} {{{{.msg}}}}" [{r}s]))',
    'max by (lvl) (count_over_time({{app=~".+"}} | logfmt | label_format lvl=level [{r}s]))',
    # label_format over a stream label folds streams into one series.
    'sum(rate({{app=~".+"}} | label_format app=host [{r}s]))',
    'bytes_over_time({{app=~".+"}} | label_format host=app [{r}s])',
    'sum by (app) (count_over_time({{app=~".+"}}[{r}s])) > 1',
    '2 * rate({{app=~".+"}}[{r}s])',
    'max(sum by (app, host) (rate({{app=~".+"}}[{r}s])) * 10) / 4',
    'count(count_over_time({{app=~".+"}}[{r}s]) >= 2)',
    'min by (app) (avg without (host) (bytes_rate({{app=~".+"}}[{r}s])))',
    # Two leaves: vector↔vector, set operators, topk.
    'sum(rate({{app=~".+"}} |= "error" [{r}s])) / sum(rate({{app=~".+"}}[{r}s]))',
    '1 - sum by (app) (count_over_time({{app=~".+"}} |= "error" [{r}s]))'
    ' / sum by (app) (count_over_time({{app=~".+"}}[{r}s]))',
    'count_over_time({{app="fm"}}[{r}s]) - count_over_time({{app="fm"}}[3s])',
    'bytes_over_time({{app=~".+"}}[{r}s]) > count_over_time({{app=~".+"}}[{r}s]) * 20',
    'max_over_time({{app=~".+"}} | json | unwrap latency_ms [{r}s])'
    ' / avg_over_time({{app=~".+"}} | json | unwrap latency_ms [{r}s])',
    'rate({{app="fm"}}[{r}s]) and count_over_time({{app="fm"}} |= "error" [{r}s])',
    'count_over_time({{app="fm"}}[{r}s]) or count_over_time({{app=~".+"}}[4s]) > -1',
    'sum by (host) (count_over_time({{app=~".+"}}[{r}s]))'
    ' unless sum by (host) (count_over_time({{app=~".+"}} |= "ok" [{r}s])) > 1',
    'topk(2, sum by (host) (bytes_over_time({{app=~".+"}}[{r}s])))',
    'bottomk(1, count_over_time({{app=~".+"}}[{r}s]))',
    'sum(topk(2, rate({{app=~".+"}}[{r}s]))) or sum(rate({{app="api"}}[2s]))',
)


# ----------------------------------------------------------------------
# The per-instant reference
# ----------------------------------------------------------------------
_STAGES = LogQLEngine(None)  # per-line stage semantics only; never selects


def _reduce(func: RangeFunc, values: list, range_ns: int) -> float:
    secs = range_ns / NANOS_PER_SECOND
    if func is RangeFunc.COUNT_OVER_TIME:
        return float(len(values))
    if func is RangeFunc.RATE:
        return len(values) / secs
    if func is RangeFunc.BYTES_OVER_TIME:
        return float(sum(values))
    if func is RangeFunc.BYTES_RATE:
        return sum(values) / secs
    if func is RangeFunc.SUM_OVER_TIME:
        return sum(values)
    if func is RangeFunc.AVG_OVER_TIME:
        return sum(values) / len(values)
    if func is RangeFunc.MAX_OVER_TIME:
        return max(values)
    return min(values)


def _ref_range_agg(source, agg: RangeAgg, t: int):
    lo, hi = t - agg.range_ns + 1, t + 1
    stages = tuple(s for s in agg.pipeline.stages if not isinstance(s, UnwrapStage))
    unwrap = agg.pipeline.unwrap_label
    series: dict[LabelSet, list] = {}
    for stream, entries in source.select(agg.pipeline.matchers, lo, hi):
        for entry in entries:
            assert lo <= entry.timestamp_ns < hi
            final = _STAGES._apply_stages(stages, stream.to_dict(), entry.line)
            if final is None:
                continue
            labels, line = LabelSet(final[0]), final[1]
            sample = len(line.encode())
            if unwrap is not None:
                try:
                    sample = float(labels[unwrap])
                except (KeyError, ValueError):
                    continue
                labels = labels.without(unwrap)
            series.setdefault(labels, []).append((entry.timestamp_ns, sample))
    out = []
    for labels in sorted(series, key=LabelSet.items_tuple):
        in_time_order = sorted(series[labels], key=lambda pair: pair[0])
        values = [value for _ts, value in in_time_order]
        out.append((labels, _reduce(agg.func, values, agg.range_ns)))
    return out


def reference_instant(source, query: str, t: int) -> list[Sample]:
    return shared.reference_instant(parse(query), t, partial(_ref_range_agg, source))


def reference_range(source, query: str, start: int, end: int, step: int) -> list[Series]:
    return shared.reference_range(
        parse(query), start, end, step, partial(_ref_range_agg, source)
    )


# ----------------------------------------------------------------------
# The three stores
# ----------------------------------------------------------------------
def bare_store(streams):
    store = LokiStore(POLICY)
    for labels, entries in streams:
        store.push_stream(labels, entries)
    return store


def ring_one_replica_behind(streams):
    """RF 3 over four ingesters; one crashes halfway through every
    stream and comes back from its WAL holding only the first halves."""
    cluster = RingLokiCluster(ingesters=4, replication_factor=3, policy=POLICY, tracer=off_tracer())
    for labels, entries in streams:
        if entries[: len(entries) // 2]:
            cluster.push_stream(labels, entries[: len(entries) // 2])
    cluster.crash_ingester("ingester-1")
    for labels, entries in streams:
        if entries[len(entries) // 2 :]:
            cluster.push_stream(labels, entries[len(entries) // 2 :])
    cluster.restart_ingester("ingester-1")
    return cluster


def tiered_early_chunks_cold(streams):
    """First halves sealed, shipped and compacted (blooms built); second
    halves still resident in the hot tier."""
    clock = SimClock(0)
    hot = LokiStore(POLICY)
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    shipper = ChunkShipper(hot, objstore, index, clock, tracer=off_tracer())
    blooms = BloomStore(objstore)
    compactor = Compactor(objstore, index, clock, derived=(blooms,), tracer=off_tracer())
    gateway = StoreGateway(objstore, index, clock, blooms=blooms, tracer=off_tracer())
    tiered = TieredLokiStore(hot, objstore, index, shipper, compactor, gateway)
    for labels, entries in streams:
        if entries[: len(entries) // 2]:
            tiered.push_stream(labels, entries[: len(entries) // 2])
    tiered.flush_all()
    tiered.flush_to_cold()
    compactor.run()
    for labels, entries in streams:
        if entries[len(entries) // 2 :]:
            tiered.push_stream(labels, entries[len(entries) // 2 :])
    assert index.ref_count() > 0 or not any(len(e) > 1 for _l, e in streams)
    return tiered


WORLDS = {
    "store": bare_store,
    "ring_rf3_one_behind": ring_one_replica_behind,
    "tiered_early_cold": tiered_early_chunks_cold,
}

stream_strategy = st.lists(
    st.tuples(
        st.fixed_dictionaries(
            {
                "app": st.sampled_from(["fm", "api"]),
                "host": st.sampled_from(["n0", "n1", "n2"]),
            }
        ),
        st.lists(
            st.tuples(st.integers(0, SPAN_S), st.sampled_from(LINES)),
            min_size=1,
            max_size=14,
        ),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda s: (s[0]["app"], s[0]["host"]),
)


def to_streams(raw_streams):
    return [
        (
            LabelSet(labels),
            [
                LogEntry(int(seconds(ts)), line)
                for ts, line in sorted(raw, key=lambda pair: pair[0])
            ],
        )
        for labels, raw in raw_streams
    ]


@pytest.mark.parametrize("world", sorted(WORLDS))
class TestRangeEqualsPerInstant:
    @given(
        raw_streams=stream_strategy,
        query=st.sampled_from(QUERIES),
        step_s=st.integers(1, 6),
        range_s=st.integers(1, 12),
        start_s=st.integers(0, 20),
        steps=st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_query_range_equals_reference(
        self, world, raw_streams, query, step_s, range_s, start_s, steps
    ):
        source = WORLDS[world](to_streams(raw_streams))
        text = query.format(r=range_s)
        start, step = int(seconds(start_s)), int(seconds(step_s))
        # Off-grid ends too: the last instant is the last one <= end.
        end = start + steps * step + step // 2
        engine = LogQLEngine(source)
        assert engine.query_range(text, start, end, step) == reference_range(
            source, text, start, end, step
        )

    @given(
        raw_streams=stream_strategy,
        query=st.sampled_from(QUERIES),
        range_s=st.integers(1, 12),
        at_s=st.integers(0, SPAN_S + 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_query_instant_is_the_one_step_case(
        self, world, raw_streams, query, range_s, at_s
    ):
        source = WORLDS[world](to_streams(raw_streams))
        text = query.format(r=range_s)
        t = int(seconds(at_s))
        engine = LogQLEngine(source)
        vector = engine.query_instant(text, t)
        assert vector == reference_instant(source, text, t)
        # topk keeps its rank order in an instant vector; a range query
        # has no rank to keep.
        assert sorted(vector, key=lambda sample: sample.labels.items_tuple()) == [
            Sample(series.labels, series.points[0][1], t)
            for series in engine.query_range(text, t, t, int(seconds(1)))
        ]


class TestWindowEdges:
    """Duplicate timestamps sitting exactly on both edges of a window."""

    def entries(self):
        return [
            LogEntry(int(seconds(ts)), line)
            for ts, line in [
                (5, "a"), (5, "a"), (5, "b"), (10, "c"), (10, "c"), (15, "d"), (15, "dd"),
            ]
        ]

    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("range_s,step_s", [(5, 10), (5, 5), (10, 5)])
    def test_left_edge_excluded_right_edge_included(self, world, range_s, step_s):
        source = WORLDS[world]([(LabelSet({"app": "fm", "host": "n0"}), self.entries())])
        engine = LogQLEngine(source)
        for func in ("count_over_time", "bytes_over_time"):
            text = f'{func}({{app="fm"}}[{range_s}s])'
            args = (int(seconds(0)), int(seconds(20)), int(seconds(step_s)))
            assert engine.query_range(text, *args) == reference_range(source, text, *args)
        (series,) = engine.query_range(
            'count_over_time({app="fm"}[5s])', int(seconds(10)), int(seconds(15)), int(seconds(5))
        )
        # (5, 10] holds the two at 10 and not the three at 5; (10, 15] the two at 15.
        assert series.values() == [2.0, 2.0]


class CountingSource:
    """A ``LogSource`` double that counts the reads it serves and records
    the ``(shard, line_contains)`` hints each one carried, and the
    windows it was asked the size of."""

    def __init__(self, inner):
        self._inner = inner
        self.selects = []
        self.hints = []
        self.sizings = []

    def select_columns(self, matchers, start_ns, end_ns, shard=None, line_contains=()):
        self.selects.append((start_ns, end_ns))
        self.hints.append((shard, tuple(line_contains)))
        return self._inner.select_columns(matchers, start_ns, end_ns, shard, line_contains)

    def bytes_overlapping(self, matchers, start_ns, end_ns, limit):
        self.sizings.append((start_ns, end_ns))
        return self._inner.bytes_overlapping(matchers, start_ns, end_ns, limit)


class TestOneReadPerRangeQuery:
    def source(self):
        return CountingSource(
            bare_store(
                [
                    (
                        LabelSet({"app": "fm", "host": f"n{i}"}),
                        [LogEntry(int(seconds(s)), f"line {s}") for s in range(0, 40, 3)],
                    )
                    for i in range(3)
                ]
            )
        )

    @pytest.mark.parametrize("steps", [1, 2, 7, 40])
    @pytest.mark.parametrize(
        "query",
        [
            'count_over_time({app="fm"}[5s])',
            'sum by (host) (rate({app="fm"} |= "line" [5s])) * 2 > 0',
            'max(sum by (host) (bytes_over_time({app="fm"}[10s])))',
        ],
    )
    def test_select_called_once_whatever_the_step_count(self, query, steps):
        source = self.source()
        start, step = int(seconds(5)), int(seconds(1))
        end = start + (steps - 1) * step
        LogQLEngine(source).query_range(query, start, end, step)
        assert len(source.selects) == 1

    @pytest.mark.parametrize("steps", [1, 7])
    @pytest.mark.parametrize(
        "query,leaves",
        [
            ('rate({app="fm"} |= "line 1" [5s]) / rate({app="fm"}[5s])', 2),
            ('count_over_time({app="fm"}[5s]) / count_over_time({app="fm"}[5s])', 1),
            ('count_over_time({app="fm"}[5s]) > 1 and count_over_time({app="fm"}[9s]) > 1', 2),
            ('topk(2, rate({app="fm"}[5s])) unless rate({app="fm"}[5s]) > 1', 1),
        ],
    )
    def test_one_select_per_distinct_range_aggregation(self, query, leaves, steps):
        source = self.source()
        start, step = int(seconds(5)), int(seconds(1))
        LogQLEngine(source).query_range(query, start, start + (steps - 1) * step, step)
        assert len(source.selects) == leaves

    def test_the_one_read_spans_every_window_and_no_more(self):
        source = self.source()
        start, end, step = int(seconds(10)), int(seconds(31)), int(seconds(5))
        LogQLEngine(source).query_range('count_over_time({app="fm"}[7s])', start, end, step)
        # First window opens at 10 - 7 (exclusive); the last instant is 30.
        assert source.selects == [(int(seconds(3)) + 1, int(seconds(30)) + 1)]

    def test_instant_query_is_one_read_of_one_window(self):
        source = self.source()
        LogQLEngine(source).query_instant('rate({app="fm"}[7s])', int(seconds(20)))
        assert source.selects == [(int(seconds(13)) + 1, int(seconds(20)) + 1)]
