"""One postings index under three stores (DESIGN §3, "the index").

(a) Whatever the label sets and matchers, each store's select is a
linear ``matches_all`` filter over what it holds, in the store's order —
also after the index changed, so the memo never serves another
generation.  (b) The budget: an unchanged index answers a repeated
selector without testing a matcher, and a first ask tests each distinct
value of the matched label once per index, not once per stream.
(c) ``refs_overlapping`` is the list comprehension it replaced, in
``(period, tenant, labels)`` order rather than sorted by labels.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet, Matcher, MatchOp, matches_all
from repro.common.postings import MAX_MEMO, PostingsIndex
from repro.common.simclock import SimClock, hours, minutes
from repro.loki.index import LabelIndex
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore
from repro.objstore.gateway import StoreGateway
from repro.objstore.index import ChunkRef, ShipperIndex
from repro.objstore.objectstore import ObjectStore
from repro.queryx.engine import ShardedQueryEngine
from repro.queryx.executor import QuerierPool
from repro.queryx.planner import QueryPlanner
from repro.ring.cluster import RingLokiCluster
from repro.tsdb.storage import TimeSeriesStore
from tests.tracing import off_tracer

NAMES = st.sampled_from(["a", "b", "c"])
#: Shared between labels, the empty value (legal, and read as absent) and
#: a non-ASCII one.
VALUES = st.sampled_from(["", "x", "y", "xy", "é"])
LABELS = st.dictionaries(NAMES, VALUES, min_size=1, max_size=3)
#: Regexes that match "" among them (``.*``, ``x?``, the empty one).
REGEXES = st.sampled_from(["", ".*", ".+", "x|y", "x.*", "x?", "[^x]+", "é"])
MATCHER = st.one_of(
    st.builds(Matcher, NAMES, st.sampled_from([MatchOp.EQ, MatchOp.NEQ]), VALUES),
    st.builds(Matcher, NAMES, st.sampled_from([MatchOp.RE, MatchOp.NRE]), REGEXES),
)
#: Short lists over three names: duplicates and contradictions are common.
MATCHERS = st.lists(MATCHER, max_size=4)
SHARD = st.integers(1, 4).flatmap(lambda n: st.tuples(st.integers(0, n - 1), st.just(n)))


def in_shard(labels: LabelSet, shard) -> bool:
    return shard is None or labels.fingerprint() % shard[1] == shard[0]


class TestSelectIsALinearFilter:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(LABELS, max_size=8), st.lists(LABELS, max_size=4), MATCHERS, SHARD)
    def test_hot_loki(self, first, later, matchers, shard):
        index, store, known = LabelIndex(), LokiStore(), []
        for batch in (first, later):  # the second ask is of a grown index
            for labels in batch:
                labelset = LabelSet(labels)
                index.get_or_create(labelset)
                store.push_stream(labels, [LogEntry(1, "line")])
                if labelset not in known:
                    known.append(labelset)
            want = [ls for ls in known if matches_all(ls, matchers)]
            assert [index.labels_of(sid) for sid in index.select(matchers)] == want
            assert store.stream_labels(matchers) == want
            cut = [ls for ls in want if in_shard(ls, shard)]
            assert [ls for ls, _ in store.select(matchers, 0, 2, shard=shard)] == cut

    @settings(max_examples=150, deadline=None)
    @given(st.lists(LABELS, max_size=8), st.lists(LABELS, max_size=8), MATCHERS)
    def test_tsdb_before_and_after_retention_empties_series(self, early, late, matchers):
        store, series = TimeSeriesStore(), {}
        for ts, batch in ((1, early), (10, late)):
            for labels in batch:
                store.ingest("m", labels, 1.0, ts)
                series[LabelSet(labels).with_labels(**{METRIC_NAME_LABEL: "m"})] = ts

        def want(alive_from):
            alive = (ls for ls, ts in series.items() if ts >= alive_from)
            return sorted((ls for ls in alive if matches_all(ls, matchers)), key=LabelSet.items_tuple)

        assert [ls for ls, _, _ in store.select(matchers, 0, 100)] == want(0)
        store.delete_before(5)  # unregisters the series last written at 1
        assert [ls for ls, _, _ in store.select(matchers, 0, 100)] == want(5)
        assert store.metric_names() == (["m"] if late else [])

    #: (c) Refs: a tenant, a stream, a span starting in one of two 60-ns periods.
    REFS = st.lists(
        st.tuples(st.sampled_from(["t1", "t2"]), LABELS, st.integers(0, 119), st.integers(0, 40)),
        max_size=12,
    )

    @settings(max_examples=150, deadline=None)
    @given(
        REFS, MATCHERS, st.integers(0, 130), st.integers(1, 60),
        st.sampled_from([None, "t1", "t2"]), st.none() | SHARD, st.data(),
    )
    def test_cold_refs_before_and_after_remove_and_rebuild(
        self, specs, matchers, start, width, tenant, shard, data
    ):
        index = ShipperIndex(ObjectStore(SimClock()), period_ns=60)
        refs = [
            ChunkRef(tenant=t, labels=LabelSet(labels), first_ts_ns=first,
                     last_ts_ns=first + span, entry_count=1, size_bytes=1,
                     uncompressed_bytes=1, key=f"k{i:02d}", period=index.period_of(first))
            for i, (t, labels, first, span) in enumerate(specs)
        ]
        for ref in refs:
            assert index.add(ref)

        def check(alive):
            want = [
                ref for ref in alive
                if ref.last_ts_ns >= start and ref.first_ts_ns < start + width
                and (tenant is None or ref.tenant == tenant)
                and matches_all(ref.labels, matchers) and in_shard(ref.labels, shard)
            ]
            # By table, then stream: each stream's refs in time order.
            want.sort(key=lambda r: (
                r.period, r.tenant, r.labels.items_tuple(), r.first_ts_ns, r.key
            ))
            got = index.refs_overlapping(
                start, start + width, tenant=tenant, matchers=matchers, shard=shard
            )
            assert got == want
            assert index.stream_labels(matchers) == {
                r.labels for r in alive if matches_all(r.labels, matchers)
            }
            assert index.periods() == sorted({r.period for r in alive})

        check(refs)
        doomed = data.draw(st.sets(st.sampled_from(refs))) if refs else set()
        for ref in doomed:
            assert index.remove(ref.key)
        alive = [ref for ref in refs if ref not in doomed]
        check(alive)
        index.persist_dirty()
        assert index.rebuild() == len(alive)
        check(alive)


class TestPostingsIndex:
    def test_result_follows_every_add_and_remove(self):
        index = PostingsIndex()
        everything = (Matcher("a", MatchOp.RE, ".*"),)
        index.add(1, LabelSet({"a": "x"}))
        assert index.select(everything) == (1,) and index.generation == 1
        index.add(0, LabelSet({"b": "y"}))
        assert index.select(everything) == (0, 1)
        index.remove(1)
        assert index.select(everything) == (0,) and index.generation == 3
        assert index.names() == ["b"] and index.values("a") == []

    def test_memo_is_bounded(self):
        index = PostingsIndex()
        index.add(0, LabelSet({"a": "x"}))
        for i in range(MAX_MEMO + 5):
            assert index.select([Matcher("a", MatchOp.NEQ, str(i))]) == (0,)
        assert len(index._memo) <= MAX_MEMO

    @pytest.mark.parametrize("shard", [(0, 0), (5, 2), (-1, 2), (2, 2)])
    def test_shard_out_of_range_is_refused(self, shard):
        """It used to be a ZeroDivisionError or a silently empty read."""
        clock = SimClock()
        objstore = ObjectStore(clock)
        cluster = RingLokiCluster(ingesters=2, replication_factor=1, tracer=off_tracer())
        cluster.push_stream({"app": "x"}, [LogEntry(1, "line")])
        readers = (
            LokiStore().select,
            StoreGateway(objstore, ShipperIndex(objstore), clock,
                tracer=off_tracer()).select,  # no table at all
            cluster.distributor.select,
        )
        for select in readers:
            with pytest.raises(ValidationError, match="out of range"):
                select([], 0, 10, shard=shard)


def counting_matcher_tests():
    """Patch the two ways a matcher is asked; returns the two call logs."""
    by_value, by_labels = [], []
    real_value, real_labels = Matcher.matches_value, Matcher.matches

    def matches_value(self, actual):
        by_value.append((self, actual))
        return real_value(self, actual)

    def matches(self, labels):
        by_labels.append(self)
        return real_labels(self, labels)

    patches = mock.patch.multiple(Matcher, matches_value=matches_value, matches=matches)
    return patches, by_value, by_labels


class TestBudget:
    def test_a_repeated_select_tests_no_matcher(self):
        selector = [Matcher("app", MatchOp.RE, ".+"), Matcher("pid", MatchOp.NRE, "1.*")]
        hot, tsdb = LokiStore(), TimeSeriesStore()
        cold = ShipperIndex(ObjectStore(SimClock()))
        for i in range(200):
            labels = LabelSet({"app": f"app{i % 5}", "pid": str(i)})
            hot.push_stream(labels, [LogEntry(1, "line")])
            tsdb.ingest("m", labels, 1.0, 1)
            cold.add(ChunkRef("t", labels, 0, 5, 1, 1, 1, f"k{i}", 0))
        asks = (
            lambda: hot.select(selector, 0, 10),
            lambda: hot.select(selector, 0, 10, shard=(1, 4)),
            lambda: tsdb.select(selector, 0, 10),
            lambda: cold.refs_overlapping(0, 10, matchers=selector),
        )
        first = [ask() for ask in asks]
        patches, by_value, by_labels = counting_matcher_tests()
        with patches:
            assert [ask() for ask in asks] == first
        assert by_value == [] and by_labels == []

    def test_an_aggregation_over_the_ring_tests_each_value_once_per_ingester(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        apps = [f"app{i}" for i in range(6)]
        for i in range(240):
            cluster.push_stream(
                {"app": apps[i % len(apps)], "pid": str(i)},
                [LogEntry(int(minutes(j)), f"line {j}") for j in range(0, 60, 7)],
            )
        engine = ShardedQueryEngine(
            cluster, SimClock(0),
            planner=QueryPlanner(shard_count=4, split_ns=minutes(15)),
            pool=QuerierPool(workers=4),
            tracer=off_tracer(),
        )
        patches, by_value, by_labels = counting_matcher_tests()
        with patches:
            series = engine.query_range(
                'sum by (app) (count_over_time({app=~".+"}[5m]))',
                0, int(hours(1)), int(minutes(5)),
            )
        assert sorted(s.labels["app"] for s in series) == apps
        assert by_labels == []  # nothing scans label sets
        per_value = Counter(actual for _, actual in by_value)
        assert set(per_value) == {"", *apps}
        # 4 shards × 4 windows × 4 ingesters ask; each ingester's index
        # tests a value once (240 streams × RF 3 are held).
        assert max(per_value.values()) <= len(cluster.ingesters)
