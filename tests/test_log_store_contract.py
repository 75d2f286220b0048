"""One log-store contract, held by every backend alike.

A bare ``LokiStore``, an RF-3 ``RingLokiCluster`` and a ``TieredLokiStore``
over either take the same ``push`` / ``push_stream`` and the same
``select(matchers, start, end, shard=None, line_contains=())`` (DESIGN
§3), so no caller asks which one it holds.
Each world here is pushed in two halves: between them every resident
chunk is sealed — on a tiered store also shipped and compacted, blooms
built — and on a ring one replica crashes, to come back from its WAL
without the second halves, so reads must merge replicas.  The lifecycle
sweeps every one of them alike: what it archives plus what stays resident
is what was acknowledged.
"""

from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus.broker import Broker
from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, hours, seconds
from repro.loki.chunks import ChunkPolicy
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
from repro.omni.lifecycle import Lifecycle
from repro.queryx.bloom import BloomStore
from repro.ring.cluster import RingLokiCluster
from repro.ring.distributor import ReadDegradedError
from repro.ring.merge import merge_stream_columns
from repro.tsdb.storage import TimeSeriesStore
from tests.counting import counted
from tests.tracing import off_tracer

#: Small enough that a stream of a dozen lines seals a chunk or two.
POLICY = ChunkPolicy(target_size_bytes=200, max_age_ns=hours(2))
MATCH_ALL = [label_matcher("app", "=~", ".+")]
#: The lifecycle's hot window in the sweep test; its clock sits this far
#: past the drawn cutoff.
HOT = hours(1)
SPAN_S = 60
WORDS = ("GPU memory error", "link flap", "ok heartbeat", "disk I/O error")


def ring():
    return RingLokiCluster(ingesters=4, replication_factor=3, policy=POLICY, tracer=off_tracer())


def tiered(hot):
    clock = SimClock(0)
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    blooms = BloomStore(objstore)
    return TieredLokiStore(
        hot,
        objstore,
        index,
        ChunkShipper(hot, objstore, index, clock, tracer=off_tracer()),
        Compactor(objstore, index, clock, derived=(blooms,), tracer=off_tracer()),
        StoreGateway(objstore, index, clock, blooms=blooms, tracer=off_tracer()),
    )


BACKENDS = {
    "bare": lambda: LokiStore(POLICY),
    "ring_rf3": ring,
    "tiered_bare": lambda: tiered(LokiStore(POLICY)),
    "tiered_ring": lambda: tiered(ring()),
}


def the_ring(store):
    hot = getattr(store, "hot", store)
    return hot if isinstance(hot, RingLokiCluster) else None


def build(kind, streams):
    """A ``kind`` backend holding ``streams``, pushed in two halves."""
    store = BACKENDS[kind]()
    for labels, entries in streams:
        if entries[: len(entries) // 2]:
            store.push_stream(labels, entries[: len(entries) // 2])
    store.flush_all()
    if isinstance(store, TieredLokiStore):
        store.flush_to_cold()
        store.compact()
    cluster = the_ring(store)
    if cluster is not None:
        cluster.crash_ingester("ingester-1")
    for labels, entries in streams:
        if entries[len(entries) // 2 :]:
            store.push_stream(labels, entries[len(entries) // 2 :])
    if cluster is not None:
        cluster.restart_ingester("ingester-1")
    store.flush_all()
    return store


stream_strategy = st.lists(
    st.tuples(
        st.fixed_dictionaries(
            {
                "app": st.sampled_from(["fm", "api"]),
                "host": st.sampled_from(["n0", "n1", "n2"]),
            }
        ),
        # Distinct timestamps: a stream's expected order is then unique.
        st.lists(
            st.tuples(st.integers(0, SPAN_S), st.sampled_from(WORDS)),
            min_size=1,
            max_size=14,
            unique_by=lambda pair: pair[0],
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
            [LogEntry(int(seconds(ts)), line) for ts, line in sorted(raw)],
        )
        for labels, raw in raw_streams
    ]


#: Few seconds, so that timestamps repeat within a stream and across the
#: halves ``build`` pushes.
TIED_SPAN_S = 4
tied_strategy = st.lists(
    st.tuples(
        st.fixed_dictionaries({"app": st.sampled_from(["fm", "api"])}),
        st.lists(
            st.tuples(st.integers(0, TIED_SPAN_S), st.sampled_from(WORDS)),
            min_size=1,
            max_size=14,
        ),
    ),
    min_size=1,
    max_size=2,
    unique_by=lambda s: s[0]["app"],
)


def reference_bytes(store, matchers, start, end):
    """What ``bytes_overlapping`` owes with no limit, off each backend's
    own chunks and refs: a store's chunks overlapping ``[start, end)``;
    a ring's first quorum of live replicas, the largest of them; a tiered
    store's cold refs and its hot tier."""
    if isinstance(store, TieredLokiStore):
        refs = store.index.refs_overlapping(start, end, matchers=matchers)
        return sum(ref.uncompressed_bytes for ref in refs) + reference_bytes(
            store.hot, matchers, start, end
        )
    if isinstance(store, RingLokiCluster):
        live = [i.store for i in store.ingesters.values() if i.active]
        quorum = live[: store.distributor.write_quorum]
        return max(reference_bytes(replica, matchers, start, end) for replica in quorum)
    return sum(
        chunk.uncompressed_bytes()
        for labels in store.stream_labels(matchers)
        for chunk in store.stream_chunks(labels)
        if chunk.first_ts_ns < end and chunk.last_ts_ns >= start
    )


def assert_columns_are_the_select(store, start, end):
    """``select_columns`` answers ``select``'s entries, each stream with
    its entries' timestamps as a fresh ``int64`` column."""
    columns = store.select_columns(MATCH_ALL, start, end)
    assert [(labels, entries) for labels, entries, _ts in columns] == store.select(
        MATCH_ALL, start, end
    )
    for _labels, entries, ts in columns:
        assert isinstance(ts, array) and ts.typecode == "q"
        assert list(ts) == [e.timestamp_ns for e in entries]
        del ts[:]  # fresh: the caller's to change
    again = store.select_columns(MATCH_ALL, start, end)
    assert [(labels, list(ts)) for labels, _entries, ts in again] == [
        (labels, [e.timestamp_ns for e in entries]) for labels, entries, _ts in columns
    ]
    return again


def window(start_s, end_s):
    return int(seconds(start_s)), int(seconds(end_s))


def as_multiset(result):
    return Counter((labels, entry) for labels, entries in result for entry in entries)


def expired(store, cutoff):
    """``expired_entries`` as ``(labels, entries)`` pairs, each stream's
    column checked against its entries' timestamps."""
    out = []
    for labels, entries, ts in store.expired_entries(cutoff):
        assert isinstance(ts, array) and list(ts) == [e.timestamp_ns for e in entries]
        out.append((labels, entries))
    return out


@pytest.mark.parametrize("kind", sorted(BACKENDS))
class TestLogStoreContract:
    @given(
        raw_streams=stream_strategy,
        start_s=st.integers(0, SPAN_S),
        span_s=st.integers(1, SPAN_S),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_read_contract(self, kind, raw_streams, start_s, span_s):
        streams = to_streams(raw_streams)
        store = build(kind, streams)
        start, end = window(start_s, start_s + span_s)
        expected = {
            labels: [e for e in entries if start <= e.timestamp_ns < end]
            for labels, entries in streams
        }
        got = store.select(MATCH_ALL, start, end)
        # Every acknowledged entry in the window, once, in timestamp
        # order; a stream with nothing in the window is absent.
        assert dict(got) == {labels: es for labels, es in expected.items() if es}
        assert len(got) == len(dict(got))
        # Each list is fresh: the caller may mutate it.
        for _labels, entries in got:
            entries.clear()
        assert dict(store.select(MATCH_ALL, start, end)) == {
            labels: es for labels, es in expected.items() if es
        }

    @given(
        raw_streams=tied_strategy,
        start_s=st.integers(0, TIED_SPAN_S),
        span_s=st.integers(1, TIED_SPAN_S + 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_select_columns_is_select_and_its_timestamps(
        self, kind, raw_streams, start_s, span_s
    ):
        # Timestamps repeat, also across the two halves: on a ring the
        # lagging replica sends reads down the general merge path, on a
        # tiered store a tie at the hot/cold boundary does.
        store = build(kind, to_streams(raw_streams))
        start, end = window(start_s, start_s + span_s)
        assert_columns_are_the_select(store, start, end)

    @given(raw_streams=stream_strategy, shards=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_shards_partition_the_unsharded_select(self, kind, raw_streams, shards):
        store = build(kind, to_streams(raw_streams))
        start, end = window(0, SPAN_S + 1)
        full = store.select(MATCH_ALL, start, end)
        parts = [
            store.select(MATCH_ALL, start, end, shard=(i, shards)) for i in range(shards)
        ]
        seen = [labels for part in parts for labels, _entries in part]
        assert len(seen) == len(set(seen))  # no stream in two shards
        assert sorted(
            (pair for part in parts for pair in part), key=lambda p: p[0].items_tuple()
        ) == sorted(full, key=lambda p: p[0].items_tuple())

    @given(
        raw_streams=stream_strategy,
        needles=st.lists(st.sampled_from([*WORDS, "memory", "ab", "absent needle"]), max_size=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_line_contains_never_changes_an_answer(self, kind, raw_streams, needles):
        # A hint may let a store skip chunks that provably hold no line
        # with every needle; the lines that do are all still there.  No
        # store orders its streams, so they compare by labels.
        store = build(kind, to_streams(raw_streams))
        start, end = window(0, SPAN_S + 1)

        def matching(result):
            return [
                (labels, kept)
                for labels, entries in result
                if (kept := [e for e in entries if all(n in e.line for n in needles)])
            ]

        hinted = store.select(MATCH_ALL, start, end, line_contains=tuple(needles))
        plain = store.select(MATCH_ALL, start, end)
        assert dict(matching(hinted)) == dict(matching(plain))
        assert not as_multiset(hinted) - as_multiset(plain)

    @given(
        raw_streams=stream_strategy,
        start_s=st.integers(0, SPAN_S),
        span_s=st.integers(1, SPAN_S),
        app=st.sampled_from([".+", "fm"]),
        limit=st.integers(1, 3000),
    )
    @settings(max_examples=40, deadline=None)
    def test_bytes_overlapping_sizes_what_a_read_reaches(
        self, kind, raw_streams, start_s, span_s, app, limit
    ):
        store = build(kind, to_streams(raw_streams))
        start, end = window(start_s, start_s + span_s)
        matchers = [label_matcher("app", "=~", app)]
        whole = reference_bytes(store, matchers, start, end)
        assert store.bytes_overlapping(matchers, start, end, whole + 1) == whole
        # Exact below the limit; at it, counting may stop.
        got = store.bytes_overlapping(matchers, start, end, limit)
        assert got == whole if whole < limit else limit <= got <= whole

    @given(raw_streams=stream_strategy, cutoff_s=st.integers(0, SPAN_S + 1))
    @settings(max_examples=30, deadline=None)
    def test_expired_entries_is_what_delete_before_removes(
        self, kind, raw_streams, cutoff_s
    ):
        store = build(kind, to_streams(raw_streams))
        start, end = window(0, SPAN_S + 1)
        cutoff = int(seconds(cutoff_s))
        before = as_multiset(store.select(MATCH_ALL, start, end))
        doomed = expired(store, cutoff)
        assert all(entries for _labels, entries in doomed)
        store.delete_before(cutoff)
        after = as_multiset(store.select(MATCH_ALL, start, end))
        assert as_multiset(doomed) == before - after

    @given(raw_streams=stream_strategy, cutoff_s=st.integers(0, SPAN_S + 1))
    @settings(max_examples=30, deadline=None)
    def test_a_sweep_keeps_every_acknowledged_entry_once(
        self, kind, raw_streams, cutoff_s
    ):
        streams = to_streams(raw_streams)
        store = build(kind, streams)
        start, end = window(0, SPAN_S + 1)
        cutoff = int(seconds(cutoff_s))
        before = store.select(MATCH_ALL, start, end)
        clock = SimClock(cutoff + HOT)
        lifecycle = Lifecycle(clock, store, TimeSeriesStore(), Broker(clock), tracer=off_tracer())
        lifecycle.hot_window_ns = HOT
        moved = lifecycle.sweep()
        archived = lifecycle.archive.select_columns(MATCH_ALL, start, end)
        # The archive holds each expired entry once, all before the cutoff.
        assert sum(len(entries) for _labels, entries, _ts in archived) == moved
        assert all(e.timestamp_ns < cutoff for _labels, es, _ts in archived for e in es)
        # Resident and archived together are the acknowledged history,
        # and the same answer the store gave before the sweep.
        both = [
            (labels, entries)
            for labels, entries, _ts in merge_stream_columns(
                store.select_columns(MATCH_ALL, start, end) + archived
            )
        ]
        assert dict(both) == dict(before)
        assert as_multiset(both) == as_multiset(streams)


def test_ring_expiry_archives_every_acknowledged_entry_once():
    """Each of three RF-3 ingesters misses three pushes while crashed.
    Retention must archive the union of the replicas, not the fullest
    one: ``delete_before`` drops the stream from all three."""
    clock = SimClock(0)
    cluster = RingLokiCluster(ingesters=3, replication_factor=3, policy=POLICY, tracer=off_tracer())
    labels = LabelSet({"app": "fm", "host": "n0"})
    acknowledged = []

    def push_three():
        for _ in range(3):
            entry = LogEntry(len(acknowledged) + 1, f"line {len(acknowledged) + 1}")
            assert cluster.push_stream(labels, [entry]) == 1
            acknowledged.append(entry)

    push_three()
    for ingester_id in ("ingester-0", "ingester-1", "ingester-2"):
        cluster.crash_ingester(ingester_id)
        push_three()
        cluster.restart_ingester(ingester_id)
    push_three()
    cluster.flush_all()
    assert len(acknowledged) == 15

    clock.advance(hours(1))
    lifecycle = Lifecycle(clock, cluster, TimeSeriesStore(), Broker(clock), tracer=off_tracer())
    lifecycle.hot_window_ns = hours(1) - 100
    assert expired(cluster, lifecycle.cutoff_ns()) == [(labels, acknowledged)]
    assert lifecycle.sweep() == 15
    assert cluster.select(MATCH_ALL, 0, int(hours(2))) == []
    assert lifecycle.archive.select(MATCH_ALL, 0, int(hours(2))) == [(labels, acknowledged)]


def test_ring_sizing_keeps_the_read_quorum():
    """A crashed replica is passed over, as a read passes it over; below
    a quorum of live replicas sizing fails as the read would, and counts
    as a degraded read."""
    cluster = ring()
    streams = [LabelSet({"app": "fm", "host": f"n{i}"}) for i in range(8)]
    for i, labels in enumerate(streams):
        cluster.push_stream(labels, [LogEntry(t, f"line {i} {t}") for t in range(i, 40, 3)])
    cluster.crash_ingester("ingester-0")
    expect = max(
        reference_bytes(cluster.ingesters[i].store, MATCH_ALL, 0, 50)
        for i in ("ingester-1", "ingester-2")
    )
    assert expect > 0
    assert cluster.bytes_overlapping(MATCH_ALL, 0, 50, 10**6) == expect
    cluster.crash_ingester("ingester-1")
    cluster.crash_ingester("ingester-2")
    with pytest.raises(ReadDegradedError):
        cluster.bytes_overlapping(MATCH_ALL, 0, 50, 10**6)
    assert cluster.distributor.reads_degraded == 1


@pytest.mark.parametrize("hot", ["bare", "ring"])
def test_tiered_sizing_counts_each_chunk_once(hot):
    """Half the history shipped and compacted, half resident: a window
    over all of it sizes the acknowledged bytes once.  The shipper drops
    what it ships, and a ring's three replicas of a chunk are one object
    cold and one replica's copy hot."""
    replicas = RingLokiCluster(
        ingesters=3, replication_factor=3, policy=POLICY, tracer=off_tracer()
    )
    store = tiered(LokiStore(POLICY) if hot == "bare" else replicas)
    streams = [LabelSet({"app": "fm", "host": f"n{i}"}) for i in range(4)]
    history = {
        labels: [LogEntry(int(seconds(t)) + i, f"{WORDS[t % 4]} {t}") for t in range(30)]
        for i, labels in enumerate(streams)
    }
    for labels, entries in history.items():
        store.push_stream(labels, entries[:15])
    store.flush_all()
    store.flush_to_cold()
    store.compact()
    for labels, entries in history.items():
        store.push_stream(labels, entries[15:])
    store.flush_all()
    assert store.index.ref_count() and store.hot.chunk_count()
    acknowledged = sum(e.size_bytes() for entries in history.values() for e in entries)
    start, end = window(0, 31)
    assert store.bytes_overlapping(MATCH_ALL, start, end, 10**9) == acknowledged
    assert reference_bytes(store, MATCH_ALL, start, end) == acknowledged


@pytest.mark.parametrize("kind", ["tiered_bare", "tiered_ring"])
def test_a_tie_at_the_hot_cold_boundary_takes_the_general_merge(kind):
    """The cold half ends at the timestamp the hot half starts at, so
    the tiers' lists are not disjoint: the merged column is rebuilt from
    the merged entries, in their order — cold before hot, so the two
    writes at the tied timestamp, one a tier, read in the order they
    arrived."""
    labels = LabelSet({"app": "fm"})
    entries = [LogEntry(1, "a"), LogEntry(2, "b"), LogEntry(2, "c"), LogEntry(3, "d")]
    store = BACKENDS[kind]()
    store.push_stream(labels, entries[:2])
    store.flush_all()
    store.flush_to_cold()
    store.push_stream(labels, entries[2:])
    hot = store.hot.select_columns(MATCH_ALL, 0, 10)
    cold = store.gateway.select_columns(MATCH_ALL, 0, 10)
    assert [list(ts) for _l, _e, ts in cold] == [[1, 2]]
    assert [list(ts) for _l, _e, ts in hot] == [[2, 3]]
    [(got_labels, got, ts)] = assert_columns_are_the_select(store, 0, 10)
    assert (got_labels, got, list(ts)) == (labels, entries, [1, 2, 2, 3])
    store.flush_all()  # the hot half sealed too: retention would doom both tiers
    assert expired(store, 10) == [(labels, entries)]


@pytest.mark.parametrize("kind", ["tiered_bare", "tiered_ring"])
def test_a_hot_cold_tie_reads_cold_then_hot_in_arrival_order(kind):
    """Unequal groups at the tied timestamp: cold's group first, then
    hot's in hot's order, however long either is — the order the
    writes arrived in."""
    labels = LabelSet({"app": "fm"})
    cold = [LogEntry(1, "a"), LogEntry(2, "b")]
    hot = [LogEntry(2, "c"), LogEntry(2, "e"), LogEntry(3, "d")]
    store = BACKENDS[kind]()
    store.push_stream(labels, cold)
    store.flush_all()
    store.flush_to_cold()
    store.push_stream(labels, hot)
    [(_labels, got, _ts)] = assert_columns_are_the_select(store, 0, 10)
    assert [(e.timestamp_ns, e.line) for e in got] == [
        (1, "a"), (2, "b"), (2, "c"), (2, "e"), (3, "d")
    ]
    store.flush_all()
    assert expired(store, 10) == [(labels, cold + hot)]


@pytest.mark.parametrize("kind", ["tiered_bare", "tiered_ring"])
def test_a_write_both_hot_and_shipped_reads_once(kind, monkeypatch):
    """A chunk shipped but not yet dropped from the hot tier (mid-flight)
    holds writes both tiers answer: each reads once, in arrival order."""
    labels = LabelSet({"app": "fm"})
    store = BACKENDS[kind]()
    store.push_stream(labels, [LogEntry(2, "b")])
    store.flush_all()
    with monkeypatch.context() as patch:
        patch.setattr(LokiStore, "drop_chunk", lambda *_args: None)
        store.flush_to_cold()
    store.push_stream(labels, [LogEntry(2, "c")])

    def lines(tier):
        return [[e.line for e in entries] for _l, entries, _ts in tier.select_columns(
            MATCH_ALL, 0, 10
        )]

    assert (lines(store.gateway), lines(store.hot)) == ([["b"]], [["b", "c"]])
    [(_labels, got, _ts)] = assert_columns_are_the_select(store, 0, 10)
    assert got == [LogEntry(2, "b"), LogEntry(2, "c")]


@pytest.mark.parametrize("kind", ["tiered_bare", "tiered_ring"])
def test_a_tiered_read_with_nothing_cold_orders_no_stream(kind):
    """The work budget of a tiered read whose cold tier answers nothing:
    the hot answer is handed on, and no layer sorts streams by label."""
    store = BACKENDS[kind]()
    streams = [LabelSet({"app": "fm", "host": f"n{i}"}) for i in range(6)]
    for i, labels in enumerate(streams):
        store.push_stream(labels, [LogEntry(i, "x"), LogEntry(i + 1, "y")])
    with counted(LabelSet, "items_tuple") as items_tuple:
        got = store.select_columns(MATCH_ALL, 0, 10)
    assert [labels for labels, _entries, _ts in got] == streams  # creation order
    assert items_tuple.call_count == 0
