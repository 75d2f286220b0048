"""The read half of the cold tier: store-gateway and the tiered facade.

A query must see exactly one copy of every entry regardless of where it
lives — resident, shipped, or (mid-flight) both — and the maintenance
surface (retention, expiry preview) must cover both tiers so the OMNI
retention manager runs unmodified.
"""

import zlib
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus.broker import Broker
from repro.common.errors import NotFoundError
from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, days, minutes
from repro.loki import chunks as chunks_module
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
from repro.ring.cluster import RingLokiCluster
from repro.tsdb.storage import TimeSeriesStore
from tests.counting import counted
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]
LABELS = LabelSet({"app": "api"})
# Select windows must end past the sim epoch (~2022), not at 10**18 (2001).
FAR_FUTURE_NS = 4 * 10**18


def small_chunks():
    return ChunkPolicy(target_size_bytes=256, max_age_ns=minutes(5))


def make_tiered(hot=None):
    clock = SimClock()
    hot = hot if hot is not None else LokiStore(small_chunks())
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    shipper = ChunkShipper(hot, objstore, index, clock, tracer=off_tracer())
    compactor = Compactor(objstore, index, clock, tracer=off_tracer())
    gateway = StoreGateway(objstore, index, clock, tracer=off_tracer())
    tiered = TieredLokiStore(hot, objstore, index, shipper, compactor, gateway)
    return clock, tiered


def entries_for(n, start_ns=0, step_ns=1_000_000):
    return [LogEntry(start_ns + i * step_ns, f"line {i}") for i in range(n)]


class TestGateway:
    def test_select_honours_window_and_accounts_latency(self):
        clock, tiered = make_tiered()
        corpus = entries_for(100)
        tiered.push_stream(LABELS, corpus)
        tiered.flush_all()
        tiered.flush_to_cold()
        gateway = tiered.gateway
        [(_, got)] = gateway.select(MATCH_ALL, 20 * 1_000_000, 60 * 1_000_000)
        assert got == corpus[20:60]
        assert gateway.last_query_latency_ns > 0
        assert gateway.counters()["chunks_fetched"] > 0

    def test_select_outside_window_fetches_nothing(self):
        clock, tiered = make_tiered()
        tiered.push_stream(LABELS, entries_for(50))
        tiered.flush_all()
        tiered.flush_to_cold()
        fetched_before = tiered.gateway.counters()["chunks_fetched"]
        assert tiered.gateway.select(MATCH_ALL, 10**15, 10**16) == []
        # Ref metadata filtered everything: no GET was charged.
        assert tiered.gateway.counters()["chunks_fetched"] == fetched_before

    def test_matcher_filtering_on_ref_metadata(self):
        clock, tiered = make_tiered()
        tiered.push_stream(LABELS, entries_for(30))
        tiered.push_stream(LabelSet({"app": "db"}), entries_for(30))
        tiered.flush_all()
        tiered.flush_to_cold()
        out = tiered.gateway.select(
            [label_matcher("app", "=", "db")], 0, FAR_FUTURE_NS
        )
        assert [labels for labels, _ in out] == [LabelSet({"app": "db"})]


class TestGatewayCountsQueriesOnly:
    """The gateway's fetch counters and decode cache are a query's story
    (exported as fetched "for cold selects"): a retention preview and a
    plan's sizing read move neither."""

    @staticmethod
    def three_chunks_cold():
        clock, tiered = make_tiered()
        corpus = entries_for(30)
        for part in (corpus[:10], corpus[10:20], corpus[20:]):
            tiered.push_stream(LABELS, part)
            tiered.flush_all()  # one sealed chunk a part
        tiered.flush_to_cold()
        assert tiered.index.ref_count() == 3
        return tiered, corpus

    def test_a_retention_preview_fetches_and_caches_nothing(self):
        tiered, corpus = self.three_chunks_cold()
        gateway, objstore = tiered.gateway, tiered.objstore
        before = gateway.counters()
        assert tiered.expired_entries(FAR_FUTURE_NS) == [
            (LABELS, corpus, array("q", [e.timestamp_ns for e in corpus]))
        ]
        assert gateway.counters() == before
        assert objstore.gets == 3  # the payloads were read, and not kept:
        gateway.select(MATCH_ALL, 0, FAR_FUTURE_NS)
        assert gateway.counters()["decode_misses"] == 3

    def test_a_retention_preview_reads_a_cached_key_without_a_get(self):
        tiered, corpus = self.three_chunks_cold()
        gateway, objstore = tiered.gateway, tiered.objstore
        gateway.select(MATCH_ALL, 0, FAR_FUTURE_NS)  # every key cached
        before, gets = gateway.counters(), objstore.gets
        [(_labels, entries, _ts)] = gateway.expired_entries(FAR_FUTURE_NS)
        assert entries == corpus
        assert (gateway.counters(), objstore.gets) == (before, gets)

    def test_sizing_makes_no_get_and_moves_no_counter(self):
        tiered, corpus = self.three_chunks_cold()
        gateway, objstore = tiered.gateway, tiered.objstore
        before, gets = gateway.counters(), objstore.gets
        whole = sum(e.size_bytes() for e in corpus)
        assert gateway.bytes_overlapping(MATCH_ALL, 0, FAR_FUTURE_NS, whole + 1) == whole
        assert (gateway.counters(), objstore.gets) == (before, gets)


class TestTieredSelect:
    def test_window_spanning_both_tiers_reads_every_entry_once(self):
        clock, tiered = make_tiered()
        old = entries_for(100)
        tiered.push_stream(LABELS, old)
        tiered.flush_all()
        tiered.flush_to_cold()
        fresh = entries_for(40, start_ns=10**10)
        tiered.push_stream(LABELS, fresh)  # stays hot (open chunk)

        [(labels, got)] = tiered.select(MATCH_ALL, 0, FAR_FUTURE_NS)
        assert labels == LABELS
        assert got == old + fresh

    def test_entry_resident_and_shipped_counts_once(self):
        """Mid-flight dedup: the same chunk resident in one store and
        already shipped from another must read back once."""
        hot = LokiStore(small_chunks())
        clock, tiered = make_tiered(hot=hot)
        corpus = entries_for(100)
        hot.push_stream(LABELS, corpus)
        hot.flush_all()
        # Ship from a twin store holding identical data; the hot copy
        # stays resident — exactly the state mid-flush.
        twin = LokiStore(small_chunks())
        twin.push_stream(LABELS, corpus)
        twin.flush_all()
        ChunkShipper(twin, tiered.objstore, tiered.index, clock, tracer=off_tracer()).flush()

        assert tiered.cold_entry_count() == len(corpus)
        assert hot.stats.entries_ingested == len(corpus)
        [(_, got)] = tiered.select(MATCH_ALL, 0, FAR_FUTURE_NS)
        assert got == corpus

    def test_tiered_through_ring(self):
        ring = RingLokiCluster(
            ingesters=4, replication_factor=3, policy=small_chunks(),
            tracer=off_tracer(),
        )
        clock, tiered = make_tiered(hot=ring)
        corpus = entries_for(200)
        tiered.push_stream(LABELS, corpus)
        tiered.flush_all()
        result = tiered.flush_to_cold()
        assert result.chunks_deduped == 2 * result.chunks_shipped
        [(_, got)] = tiered.select(MATCH_ALL, 0, FAR_FUTURE_NS)
        assert got == corpus


class TestShardPushDown:
    """``shard=(i, n)`` reaches every tier: the hot stores drop
    off-shard streams before reading or merging them, and the answer is
    the fingerprint partition of the unsharded select."""

    STREAMS = [LabelSet({"app": "api", "host": f"n{i}"}) for i in range(12)]

    def world(self, hot):
        clock, tiered = make_tiered(hot=hot)
        for k, labels in enumerate(self.STREAMS):
            tiered.push_stream(labels, entries_for(60, start_ns=k))
        tiered.flush_all()
        tiered.flush_to_cold()
        for k, labels in enumerate(self.STREAMS):
            tiered.push_stream(labels, entries_for(20, start_ns=10**10 + k))
        return tiered

    @pytest.mark.parametrize(
        "make_hot",
        [
            lambda: LokiStore(small_chunks()),
            lambda: RingLokiCluster(
                ingesters=4, replication_factor=3, policy=small_chunks(),
                tracer=off_tracer(),
            ),
        ],
        ids=["store", "ring_rf3"],
    )
    def test_shards_partition_the_unsharded_select(self, make_hot):
        tiered = self.world(make_hot())
        for source in (tiered, tiered.hot):
            full = source.select(MATCH_ALL, 0, FAR_FUTURE_NS)
            assert len(full) == len(self.STREAMS)
            for count in (1, 3, 4):
                shards = [
                    source.select(MATCH_ALL, 0, FAR_FUTURE_NS, shard=(i, count))
                    for i in range(count)
                ]
                for i, part in enumerate(shards):
                    assert part == [
                        (labels, entries)
                        for labels, entries in full
                        if labels.fingerprint() % count == i
                    ]

    def test_off_shard_streams_never_reach_the_replica_merge(self, monkeypatch):
        from repro.ring import distributor

        merged_streams = set()
        real_merge = distributor.merge_stream_columns

        def spy(results):
            merged_streams.update(labels for labels, _entries, _ts in results)
            return real_merge(results)

        monkeypatch.setattr(distributor, "merge_stream_columns", spy)
        ring = RingLokiCluster(
            ingesters=4, replication_factor=3, policy=small_chunks(),
            tracer=off_tracer(),
        )
        tiered = self.world(ring)
        on_shard = tiered.select(MATCH_ALL, 10**10, FAR_FUTURE_NS, shard=(1, 4))
        assert 0 < len(on_shard) < len(self.STREAMS)
        assert len(merged_streams) == len(on_shard)


class TestTieredMaintenance:
    def test_delete_before_and_expired_entries_cover_both_tiers(self):
        clock, tiered = make_tiered()
        now = clock.now_ns
        old = entries_for(100, start_ns=now - days(10))
        tiered.push_stream(LABELS, old)
        tiered.flush_all()
        tiered.flush_to_cold()
        recent = entries_for(100, start_ns=now - days(1))
        tiered.push_stream(LABELS, recent)
        tiered.flush_all()  # sealed but still hot

        cutoff = now - days(2)
        [(_, doomed, ts)] = tiered.expired_entries(cutoff)
        assert doomed == old and list(ts) == [e.timestamp_ns for e in old]
        dropped = tiered.delete_before(cutoff)
        assert dropped > 0
        assert tiered.cold_entry_count() == 0
        [(_, left)] = tiered.select(MATCH_ALL, 0, FAR_FUTURE_NS)
        assert left == recent

    def test_lifecycle_sweeps_across_tiers(self):
        clock, tiered = make_tiered()
        now = clock.now_ns
        # Ancient data lives cold; recent data lives hot.
        ancient = entries_for(80, start_ns=now - days(400))
        tiered.push_stream(LABELS, ancient)
        tiered.flush_all()
        tiered.flush_to_cold()
        recent = entries_for(80, start_ns=now - days(1))
        tiered.push_stream(LABELS, recent)

        lifecycle = Lifecycle(clock, tiered, TimeSeriesStore(), Broker(clock), tracer=off_tracer())
        lifecycle.hot_window_ns = days(365)
        moved = lifecycle.sweep()
        assert moved == len(ancient)
        assert tiered.cold_entry_count() == 0
        [(_, left)] = tiered.select(MATCH_ALL, 0, FAR_FUTURE_NS)
        assert left == recent
        # The archived copy reads back intact, from the archive's own bucket.
        [(_, restored)] = lifecycle.archive.select(MATCH_ALL, 0, FAR_FUTURE_NS)
        assert restored == ancient

    def test_accounting_unions_tiers(self):
        clock, tiered = make_tiered()
        old = entries_for(100)
        tiered.push_stream(LABELS, old)
        tiered.flush_all()
        tiered.flush_to_cold()
        tiered.push_stream(LabelSet({"app": "db"}), entries_for(5, 10**10))

        assert tiered.stream_count() == 2
        assert set(tiered.stream_labels()) == {LABELS, LabelSet({"app": "db"})}
        # Oldest entry is cold; resident accounting is the hot story.
        assert tiered.oldest_entry_ns() == old[0].timestamp_ns
        assert tiered.cold_entry_count() == len(old)
        assert tiered.cold_bytes() > 0
        assert tiered.stored_bytes() < tiered.cold_bytes()


class TestDecodeCache:
    """The gateway's :class:`~repro.loki.chunks.DecodeCache`, keyed by
    object key, decodes a key once while it stays cached, and the gateway
    answers exactly what one with nothing cached answers: keys are
    content-addressed, so a key's entries never change."""

    STREAMS = [LabelSet({"app": "api", "host": f"n{i}"}) for i in range(3)]
    SPAN_NS = 120 * 1_000_000  # entries_for(120)

    def world(self):
        """Three streams of several cold chunks each, one of them with a
        lagging replica's divergent chunks beside its own."""
        clock, tiered = make_tiered()
        for k, labels in enumerate(self.STREAMS):
            tiered.push_stream(labels, entries_for(120, start_ns=k))
        tiered.flush_all()
        tiered.flush_to_cold()
        twin = LokiStore(ChunkPolicy(target_size_bytes=180, max_age_ns=minutes(5)))
        twin.push_stream(self.STREAMS[0], entries_for(90))
        twin.flush_all()
        ChunkShipper(twin, tiered.objstore, tiered.index, clock, tracer=off_tracer()).flush()
        return clock, tiered

    @staticmethod
    def fresh(tiered, clock):
        return StoreGateway(tiered.objstore, tiered.index, clock, tracer=off_tracer())

    @staticmethod
    def spoil(answer):
        """A caller may do what it likes with its lists and columns; none
        is cached."""
        for _labels, entries, *columns in answer:
            entries.clear()
            for ts in columns:
                del ts[:]

    @staticmethod
    def assert_within_bound(gateway, bound):
        sizes = [size for _entries, size in gateway._decoded._entries.values()]
        assert gateway._decoded.bytes == sum(sizes) <= bound

    window = st.tuples(st.integers(-5, 130), st.integers(0, 130)).map(
        lambda pair: (pair[0] * 1_000_000, (pair[0] + pair[1]) * 1_000_000)
    )
    step = st.one_of(
        st.tuples(st.just("select"), window, st.integers(1, 3)),
        st.tuples(st.just("compact"), st.none(), st.just(1)),
        st.tuples(st.just("sweep"), st.integers(0, 130), st.just(1)),
    )

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(step, min_size=1, max_size=8), bound=st.sampled_from([300, 1_000, None]))
    def test_cached_answers_equal_a_fresh_gateways(self, steps, bound):
        bound = chunks_module.DECODE_CACHE_BYTES if bound is None else bound
        with mock.patch.object(chunks_module, "DECODE_CACHE_BYTES", bound):
            clock, tiered = self.world()
            gateway = tiered.gateway
            for kind, arg, repeat in steps:
                if kind == "select":
                    for _ in range(repeat):
                        got = gateway.select(MATCH_ALL, *arg)
                        assert got == self.fresh(tiered, clock).select(MATCH_ALL, *arg)
                        self.spoil(got)
                elif kind == "compact":
                    tiered.compact()  # new keys for merged chunks
                else:
                    cutoff = arg * 1_000_000
                    got = gateway.expired_entries(cutoff)
                    assert got == self.fresh(tiered, clock).expired_entries(cutoff)
                    self.spoil(got)
                    tiered.compactor.delete_chunks_before(cutoff)
                self.assert_within_bound(gateway, bound)
            whole = (-1, FAR_FUTURE_NS)
            assert gateway.select(MATCH_ALL, *whole) == self.fresh(tiered, clock).select(
                MATCH_ALL, *whole
            )

    def test_answers_are_fresh_lists(self):
        # One chunk, read whole: the answer a cached list would be.
        _clock, tiered = make_tiered()
        tiered.push_stream(LABELS, entries_for(5))
        tiered.flush_all()
        tiered.flush_to_cold()
        for read in (
            lambda: tiered.gateway.select(MATCH_ALL, 0, FAR_FUTURE_NS),
            lambda: tiered.gateway.expired_entries(FAR_FUTURE_NS),
        ):
            self.spoil(read())
            assert [(labels, entries) for labels, entries, *_ts in read()] == [
                (LABELS, entries_for(5))
            ]

    def test_an_entry_list_over_the_bound_is_not_kept(self):
        with mock.patch.object(chunks_module, "DECODE_CACHE_BYTES", 10):
            _clock, tiered = self.world()
            tiered.gateway.select(MATCH_ALL, 0, FAR_FUTURE_NS)
            assert tiered.gateway._decoded.bytes == 0
            assert tiered.gateway.counters()["decode_hits"] == 0

    def test_a_deleted_object_still_fails_on_the_get(self):
        _clock, tiered = self.world()
        gateway = tiered.gateway
        gateway.select(MATCH_ALL, 0, FAR_FUTURE_NS)
        ref = tiered.index.refs_overlapping(0, FAR_FUTURE_NS)[0]
        assert ref.key in gateway._decoded._entries
        tiered.objstore.delete(tiered.index.bucket, ref.key)
        with pytest.raises(NotFoundError):
            gateway.select(MATCH_ALL, 0, FAR_FUTURE_NS)


class TestDecodeBudget:
    """Work budget: k repeated cold selects of one window decompress
    each distinct object once, and pay every GET an uncached gateway
    pays."""

    REPEATS = 4

    def run(self, bound):
        with mock.patch.object(chunks_module, "DECODE_CACHE_BYTES", bound):
            clock, tiered = TestDecodeCache().world()
            with counted(zlib, "decompress") as decompress:
                for _ in range(self.REPEATS):
                    tiered.gateway.select(MATCH_ALL, 10 * 1_000_000, 100 * 1_000_000)
            return (
                decompress.call_count,
                tiered.gateway.counters(),
                tiered.objstore.counters()["gets"],
                tiered.gateway.last_chunks_fetched,
            )

    def test_repeated_selects_decode_each_object_once(self):
        decodes, counters, gets, per_select = self.run(chunks_module.DECODE_CACHE_BYTES)
        uncached_decodes, uncached, uncached_gets, _ = self.run(0)
        assert per_select > 3
        assert decodes == per_select == counters["decode_misses"]
        assert counters["decode_hits"] == (self.REPEATS - 1) * per_select
        assert uncached_decodes == self.REPEATS * per_select
        assert counters["chunks_fetched"] == uncached["chunks_fetched"] == self.REPEATS * per_select
        assert counters["bytes_fetched"] == uncached["bytes_fetched"]
        assert counters["fetch_latency_ns"] == uncached["fetch_latency_ns"]
        assert gets == uncached_gets
