"""Tests for the label index and the Loki store / sharded cluster."""

import zlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import NotFoundError, ValidationError
from repro.common.labels import LabelSet, label_matcher
from repro.loki import chunks as chunks_module
from repro.loki.chunks import ChunkPolicy
from repro.loki.index import LabelIndex
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import LokiStore
from repro.ring.cluster import RingLokiCluster
from tests.counting import counted
from tests.test_log_store_contract import reference_bytes
from tests.tracing import off_tracer


class TestLabelIndex:
    def test_get_or_create_is_stable(self):
        idx = LabelIndex()
        a = idx.get_or_create(LabelSet({"x": "1"}))
        b = idx.get_or_create(LabelSet({"x": "1"}))
        assert a == b and len(idx) == 1

    def test_distinct_labelsets_get_distinct_ids(self):
        idx = LabelIndex()
        a = idx.get_or_create(LabelSet({"x": "1"}))
        b = idx.get_or_create(LabelSet({"x": "2"}))
        assert a != b

    def test_labels_of_unknown_raises(self):
        with pytest.raises(NotFoundError):
            LabelIndex().labels_of(99)

    def test_select_equality_uses_postings(self):
        idx = LabelIndex()
        for i in range(10):
            idx.get_or_create(LabelSet({"app": f"a{i % 2}", "n": str(i)}))
        hits = idx.select([label_matcher("app", "=", "a1")])
        assert len(hits) == 5

    def test_select_conjunction(self):
        idx = LabelIndex()
        idx.get_or_create(LabelSet({"app": "x", "env": "prod"}))
        idx.get_or_create(LabelSet({"app": "x", "env": "dev"}))
        hits = idx.select(
            [label_matcher("app", "=", "x"), label_matcher("env", "=", "prod")]
        )
        assert len(hits) == 1

    def test_select_regex(self):
        idx = LabelIndex()
        idx.get_or_create(LabelSet({"app": "frontend"}))
        idx.get_or_create(LabelSet({"app": "backend"}))
        hits = idx.select([label_matcher("app", "=~", ".*end")])
        assert len(hits) == 2

    def test_select_no_match_is_empty(self):
        idx = LabelIndex()
        idx.get_or_create(LabelSet({"a": "b"}))
        assert idx.select([label_matcher("a", "=", "zzz")]) == ()

    def test_label_browsing(self):
        idx = LabelIndex()
        idx.get_or_create(LabelSet({"app": "x", "env": "prod"}))
        idx.get_or_create(LabelSet({"app": "y"}))
        assert idx.label_names() == ["app", "env"]
        assert idx.label_values("app") == ["x", "y"]

    def test_size_grows_with_streams_not_reuse(self):
        idx = LabelIndex()
        idx.get_or_create(LabelSet({"a": "1"}))
        size1 = idx.size_bytes()
        idx.get_or_create(LabelSet({"a": "1"}))  # same stream
        assert idx.size_bytes() == size1
        idx.get_or_create(LabelSet({"a": "2"}))
        assert idx.size_bytes() > size1


class TestStore:
    def test_push_and_select(self):
        store = LokiStore()
        store.push(PushRequest.single({"app": "x"}, [(1, "hello"), (2, "world")]))
        results = store.select([label_matcher("app", "=", "x")], 0, 10)
        assert len(results) == 1
        labels, entries = results[0]
        assert labels == {"app": "x"}
        assert [e.line for e in entries] == ["hello", "world"]

    def test_select_time_window(self):
        store = LokiStore()
        store.push(PushRequest.single({"a": "b"}, [(i, str(i)) for i in range(10)]))
        results = store.select([label_matcher("a", "=", "b")], 3, 6)
        assert [e.timestamp_ns for e in results[0][1]] == [3, 4, 5]

    def test_empty_range_rejected(self):
        store = LokiStore()
        with pytest.raises(ValidationError):
            store.select([], 5, 5)

    def test_out_of_order_rejected_and_counted(self):
        store = LokiStore()
        store.push(PushRequest.single({"a": "b"}, [(10, "x")]))
        accepted = store.push(PushRequest.single({"a": "b"}, [(5, "late")]))
        assert accepted == 0
        assert store.stats.entries_rejected == 1

    def test_separate_streams_independent_order(self):
        store = LokiStore()
        store.push(PushRequest.single({"a": "1"}, [(10, "x")]))
        # Different stream may carry older timestamps.
        assert store.push(PushRequest.single({"a": "2"}, [(5, "y")])) == 1

    def test_chunk_rollover_on_size(self):
        store = LokiStore(ChunkPolicy(target_size_bytes=64))
        lines = [(i, "x" * 30) for i in range(10)]
        store.push(PushRequest.single({"a": "b"}, lines))
        assert store.chunk_count() > 1
        # All entries still readable across chunks.
        results = store.select([label_matcher("a", "=", "b")], 0, 100)
        assert len(results[0][1]) == 10

    def test_per_stream_chunks(self):
        store = LokiStore()
        store.push(PushRequest.single({"s": "1"}, [(1, "a")]))
        store.push(PushRequest.single({"s": "2"}, [(1, "b")]))
        assert store.stream_count() == 2
        assert store.chunk_count() == 2  # each stream fills its own chunk

    def test_flush_aged(self):
        store = LokiStore(ChunkPolicy(target_size_bytes=10**6, max_age_ns=100))
        store.push(PushRequest.single({"a": "b"}, [(0, "x")]))
        assert store.flush_aged(now_ns=50) == 0
        assert store.flush_aged(now_ns=150) == 1

    def test_flush_all(self):
        store = LokiStore()
        store.push(PushRequest.single({"a": "b"}, [(0, "x")]))
        assert store.flush_all() == 1
        assert store.flush_all() == 0

    def test_delete_before_drops_only_sealed_old_chunks(self):
        store = LokiStore(ChunkPolicy(target_size_bytes=16))
        store.push(
            PushRequest.single({"a": "b"}, [(i, "0123456789abcd") for i in range(5)])
        )
        store.flush_all()
        dropped = store.delete_before(3)
        assert dropped >= 1
        remaining = store.select([label_matcher("a", "=", "b")], 0, 100)
        # Entries at ts >= 3 must survive.
        surviving = [e.timestamp_ns for e in remaining[0][1]]
        assert all(t >= 3 for t in surviving) or 3 in surviving

    def test_compression_accounting(self):
        store = LokiStore()
        store.push(
            PushRequest.single(
                {"a": "b"}, [(i, "repetitive line " * 8) for i in range(100)]
            )
        )
        store.flush_all()
        assert store.compression_ratio() > 3.0
        assert store.index_bytes() < 100  # one stream, one label


def decoded_counts(store):
    """Per-stream resident entries the slow way: decode every chunk."""
    everything = [label_matcher("s", "=~", ".*")]
    counts = {labels: 0 for labels in store.stream_labels()}
    counts.update(
        (labels, len(entries)) for labels, entries in store.select(everything, 0, 10**9)
    )
    return counts


class TestAntiEntropySurface:
    def mixed_store(self):
        """Streams in every chunk state: sealed + head, all sealed,
        partly retention-deleted, and wholly shipped away."""
        store = LokiStore(ChunkPolicy(target_size_bytes=64))
        line = "x" * 30

        def push(name, timestamps):
            store.push(PushRequest.single({"s": name}, [(t, line) for t in timestamps]))

        push("head", [100])
        push("mixed", range(100, 109))
        push("sealed", range(100, 106))
        push("cut", range(10))
        push("gone", range(100, 104))
        store.flush_all()
        push("head", [101])  # flush_all sealed it; this opens a new head
        push("mixed", [120])
        assert store.delete_before(5) >= 1
        push("cut", [30])
        for labels, chunk in store.sealed_chunks():
            if labels["s"] == "gone":
                assert store.drop_chunk(labels, chunk)
        return store

    def test_resident_entry_counts_equal_decoded_entries(self):
        store = self.mixed_store()
        counts = store.resident_entry_counts()
        assert counts == decoded_counts(store)
        assert set(counts) == set(store.stream_labels())
        assert counts[LabelSet({"s": "gone"})] == 0  # known, nothing resident
        assert 0 < counts[LabelSet({"s": "cut"})] < 11  # partly deleted
        assert counts[LabelSet({"s": "mixed"})] == 10  # sealed + head

    def test_resident_entry_counts_of_some_streams(self):
        store = self.mixed_store()
        wanted = [LabelSet({"s": "mixed"}), LabelSet({"s": "never-pushed"})]
        assert store.resident_entry_counts(wanted) == {LabelSet({"s": "mixed"}): 10}

    def test_every_change_of_resident_entries_marks_its_stream(self):
        store = LokiStore(ChunkPolicy(target_size_bytes=64))
        line = "x" * 30
        a, b, c = (LabelSet({"s": name}) for name in "abc")
        for labels in (a, b, c):
            store.push_stream(labels, [LogEntry(i, line) for i in range(6)])
        assert store.drain_touched() == {a, b, c}
        assert store.drain_touched() == set()  # the drain forgets
        # Sealing moves no entry: nothing to re-diff.
        store.flush_all()
        store.select([label_matcher("s", "=~", ".*")], 0, 100)
        assert store.drain_touched() == set()
        store.push_stream(a, [LogEntry(50, line)])
        assert store.drain_touched() == {a}
        store.replace_stream(b, [LogEntry(60, line)])
        assert store.drain_touched() == {b}
        labels, chunk = next(p for p in store.sealed_chunks() if p[0] == c)
        store.drop_chunk(labels, chunk)
        assert store.drain_touched() == {c}
        assert store.drop_chunk(labels, chunk) is False  # already gone
        assert store.drain_touched() == set()
        # Retention marks exactly the streams it cut: b's one entry is
        # newer than the cutoff, a and c lose sealed chunks.
        store.flush_all()
        assert store.delete_before(4) >= 2
        assert store.drain_touched() == {a, c}
        assert store.delete_before(4) == 0
        assert store.drain_touched() == set()


EVERY_STREAM = [label_matcher("s", "=~", ".*")]


def uncached(read):
    """``read()`` with every decode cache bounded at 0 bytes."""
    with mock.patch.object(chunks_module, "DECODE_CACHE_BYTES", 0):
        return read()


def spoil(answer):
    """A caller may do what it likes with its lists and columns; none
    is cached."""
    for _labels, entries, *columns in answer:
        entries.clear()
        for ts in columns:
            del ts[:]


class TestDecodeCache:
    """The hot store reads a sealed chunk through its
    :class:`~repro.loki.chunks.DecodeCache`, keyed by the resident chunk:
    at every step of pushes, seals, reads and every way a chunk leaves
    the store, it answers exactly what an uncached store answers, holds
    no more than the bound and no chunk the store no longer has."""

    STREAMS = [LabelSet({"s": name}) for name in "abc"]
    POLICY = ChunkPolicy(target_size_bytes=60)

    step = st.one_of(
        st.tuples(st.just("push"), st.integers(0, 2), st.integers(1, 30)),
        st.tuples(st.just("flush_all"), st.none(), st.none()),
        st.tuples(st.just("select"), st.integers(-2, 100), st.integers(1, 100)),
        st.tuples(st.just("drop_chunk"), st.integers(0, 50), st.none()),
        st.tuples(st.just("delete_before"), st.integers(0, 100), st.none()),
        st.tuples(st.just("replace_stream"), st.integers(0, 2), st.integers(0, 8)),
        st.tuples(st.just("expired_entries"), st.integers(0, 100), st.none()),
    )

    @staticmethod
    def assert_cache_holds_only_resident_chunks(store, bound):
        cache = store._decoded
        sizes = [size for _entries, size in cache._entries.values()]
        assert cache.bytes == sum(sizes) <= bound
        resident = {
            id(chunk) for labels in store.stream_labels() for chunk in store.stream_chunks(labels)
        }
        assert {id(chunk) for chunk in cache._entries} <= resident

    @settings(max_examples=80, deadline=None)
    @given(
        steps=st.lists(step, min_size=1, max_size=20),
        bound=st.sampled_from([0, 300, None]),
    )
    def test_cached_answers_equal_an_uncached_stores(self, steps, bound):
        bound = chunks_module.DECODE_CACHE_BYTES if bound is None else bound
        with mock.patch.object(chunks_module, "DECODE_CACHE_BYTES", bound):
            store, reference = LokiStore(self.POLICY), LokiStore(self.POLICY)
            clock = 0  # the next timestamp; every stream's entries are newer
            # Sealed chunks and an open head in every stream to start from.
            steps = [("push", k, 25) for k in range(3)] + steps
            for kind, a, b in steps:
                both = (store, reference)
                if kind == "push":
                    entries = [LogEntry(clock + i, f"{a}:{clock + i} line") for i in range(b)]
                    clock += b
                    for subject in both:
                        subject.push_stream(self.STREAMS[a], entries)
                elif kind == "flush_all":
                    for subject in both:
                        subject.flush_all()
                elif kind == "select":
                    start, end = a * clock // 100, (a + b) * clock // 100 + 1
                    for _ in range(2):  # the second read is a hit
                        got = store.select(EVERY_STREAM, start, end)
                        assert got == uncached(lambda: reference.select(EVERY_STREAM, start, end))
                        spoil(got)
                elif kind == "drop_chunk":
                    sealed = store.sealed_chunks()
                    if sealed:
                        labels, chunk = sealed[a % len(sealed)]
                        ref_labels, ref_chunk = reference.sealed_chunks()[a % len(sealed)]
                        assert labels == ref_labels
                        assert store.drop_chunk(labels, chunk)
                        reference.drop_chunk(ref_labels, ref_chunk)
                elif kind == "delete_before":
                    cutoff = a * clock // 100
                    assert store.delete_before(cutoff) == reference.delete_before(cutoff)
                elif kind == "replace_stream":
                    # An older history than the stream's own, then newer pushes.
                    entries = [LogEntry(ts, f"{a}:{ts} again") for ts in range(0, clock, 3)][:b]
                    for subject in both:
                        subject.replace_stream(self.STREAMS[a], entries)
                else:
                    cutoff = a * clock // 100
                    got = store.expired_entries(cutoff)
                    assert got == uncached(lambda: reference.expired_entries(cutoff))
                    spoil(got)
                self.assert_cache_holds_only_resident_chunks(store, bound)
            whole = store.select(EVERY_STREAM, -1, clock + 1)
            spoil(whole)
            assert store.select(EVERY_STREAM, -1, clock + 1) == uncached(
                lambda: reference.select(EVERY_STREAM, -1, clock + 1)
            )

    def test_a_chunk_larger_than_the_bound_is_not_kept(self):
        with mock.patch.object(chunks_module, "DECODE_CACHE_BYTES", 10):
            store = LokiStore(self.POLICY)
            store.push_stream(self.STREAMS[0], [LogEntry(i, "x" * 30) for i in range(6)])
            store.flush_all()
            store.select(EVERY_STREAM, 0, 10)
            assert store._decoded.bytes == 0
            assert store._decoded.hits == 0


class TestSizingColumns:
    """The span columns ``bytes_overlapping`` sizes a window from follow
    every way a stream's chunks change: after each step of the decode
    cache's walk, each window sizes to the bytes of the chunks that
    overlap it."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(TestDecodeCache.step, min_size=1, max_size=20),
        cuts=st.lists(st.tuples(st.integers(-2, 100), st.integers(1, 100)), min_size=1, max_size=3),
    )
    def test_every_window_sizes_to_its_chunks(self, steps, cuts):
        store = LokiStore(TestDecodeCache.POLICY)
        streams = TestDecodeCache.STREAMS
        clock = 0
        for kind, a, b in [("push", k, 25) for k in range(3)] + steps:
            if kind == "push":
                store.push_stream(
                    streams[a], [LogEntry(clock + i, f"{a}:{clock + i} line") for i in range(b)]
                )
                clock += b
            elif kind == "flush_all":
                store.flush_all()
            elif kind == "drop_chunk" and store.sealed_chunks():
                sealed = store.sealed_chunks()
                assert store.drop_chunk(*sealed[a % len(sealed)])
            elif kind == "delete_before":
                store.delete_before(a * clock // 100)
            elif kind == "replace_stream":
                entries = [LogEntry(ts, f"{a}:{ts} again") for ts in range(0, clock, 3)][:b]
                store.replace_stream(streams[a], entries)
            for x, y in cuts:
                start, end = x * clock // 100, (x + y) * clock // 100 + 1
                assert store.bytes_overlapping(EVERY_STREAM, start, end, 2**40) == (
                    reference_bytes(store, EVERY_STREAM, start, end)
                )


class TestHotDecodeBudget:
    """Work budget: k repeated hot selects of one window decompress each
    sealed chunk once; the open heads are read in place."""

    REPEATS = 4

    def run(self, bound):
        with mock.patch.object(chunks_module, "DECODE_CACHE_BYTES", bound):
            store = LokiStore(ChunkPolicy(target_size_bytes=200))
            for labels in TestDecodeCache.STREAMS:
                store.push_stream(labels, [LogEntry(i, f"line {i:03d}") for i in range(60)])
            with counted(zlib, "decompress") as decompress:
                for _ in range(self.REPEATS):
                    store.select(EVERY_STREAM, 5, 55)
            return decompress.call_count, store

    def test_repeated_selects_decode_each_sealed_chunk_once(self):
        decodes, store = self.run(chunks_module.DECODE_CACHE_BYTES)
        read = [
            chunk for _labels, chunk in store.sealed_chunks()
            if chunk.last_ts_ns >= 5 and chunk.first_ts_ns < 55
        ]
        assert len(read) > 3
        assert decodes == len(read) == store._decoded.misses
        assert store._decoded.hits == (self.REPEATS - 1) * len(read)
        uncached_decodes, _store = self.run(0)
        assert uncached_decodes == self.REPEATS * len(read)

    def test_only_chunks_overlapping_the_window_are_decoded(self):
        # A sealed chunk spanning [10, 20] is read by a window reaching
        # it; the window's end is exclusive, the chunk's last entry not.
        for start, end, decodes in [(15, 25, 1), (0, 11, 1), (20, 21, 1), (21, 30, 0), (0, 10, 0)]:
            store = LokiStore()
            store.push_stream(TestDecodeCache.STREAMS[0], [LogEntry(10, "x"), LogEntry(20, "y")])
            store.flush_all()
            with counted(zlib, "decompress") as decompress:
                got = store.select(EVERY_STREAM, start, end)
            assert decompress.call_count == decodes == len(got), (start, end)

    def test_an_empty_chunk_is_never_read(self):
        # A stream's first line refused opens no chunk for it: there is
        # nothing empty to read, open or sealed.
        store = LokiStore()
        with pytest.raises(ValidationError):
            store.push_stream(TestDecodeCache.STREAMS[0], [LogEntry(10, "bad \x1e line")])
        assert store.chunk_count() == 0
        assert store.select(EVERY_STREAM, 0, 10**18) == []
        store.flush_all()
        assert store.select(EVERY_STREAM, 0, 10**18) == []

    def test_a_refused_line_cuts_no_chunk(self):
        # The refused line would not fit beside the full one: it is
        # refused before the full chunk is sealed or a new one opened.
        store = LokiStore(ChunkPolicy(target_size_bytes=20))
        labels = TestDecodeCache.STREAMS[0]
        store.push_stream(labels, [LogEntry(10, "a line of twenty chr")])
        before = (store.chunk_count(), store.stats.chunks_created, store.sealed_chunks())
        with pytest.raises(ValidationError):
            store.push_stream(labels, [LogEntry(20, "bad \x1e line")])
        assert (store.chunk_count(), store.stats.chunks_created, store.sealed_chunks()) == before
        store.flush_all()
        [(_labels, chunk)] = store.sealed_chunks()
        assert chunk.first_ts_ns == 10 and chunk.entry_count == 1


def ring(ingesters):
    """The one sharded cluster: the ingest ring, unreplicated."""
    return RingLokiCluster(ingesters=ingesters, replication_factor=1, tracer=off_tracer())


def entry_counts(cluster):
    return [i.store.stats.entries_ingested for i in cluster.ingesters.values()]


class TestCluster:
    def test_shards_validated(self):
        with pytest.raises(ValidationError):
            ring(0)

    def test_push_and_global_select(self):
        cluster = ring(4)
        for i in range(20):
            cluster.push(PushRequest.single({"stream": str(i)}, [(1, f"line{i}")]))
        results = cluster.select([label_matcher("stream", "=~", ".*")], 0, 10)
        assert len(results) == 20

    def test_stream_affinity(self):
        """The same stream always lands on the same shard (ordering holds)."""
        cluster = ring(4)
        for i in range(10):
            cluster.push(PushRequest.single({"s": "fixed"}, [(i, str(i))]))
        counts = [c for c in entry_counts(cluster) if c]
        assert counts == [10]

    def test_distribution_across_shards(self):
        cluster = ring(8)
        for i in range(200):
            cluster.push(PushRequest.single({"s": str(i)}, [(1, "x")]))
        busy = [c for c in entry_counts(cluster) if c > 0]
        assert len(busy) == 8  # every shard participates

    def test_parallel_speedup_grows_with_shards(self):
        def speedup(shards):
            cluster = ring(shards)
            for i in range(400):
                cluster.push(PushRequest.single({"s": str(i)}, [(1, "x")]))
            counts = entry_counts(cluster)
            return sum(counts) / max(counts)

        assert speedup(8) > speedup(2) > speedup(1) * 0.99

    def test_total_entries(self):
        cluster = ring(2)
        cluster.push(PushRequest.single({"a": "1"}, [(1, "x"), (2, "y")]))
        assert cluster.stats.entries_ingested == 2

    def test_stats_aggregates_across_shards(self):
        cluster = ring(4)
        for i in range(50):
            cluster.push(PushRequest.single({"s": str(i)}, [(1, "x" * 10)]))
        # Out-of-order entry rejected by whichever shard owns the stream.
        cluster.push(PushRequest.single({"s": "0"}, [(0, "late")]))
        stats = cluster.stats
        assert stats.entries_ingested == 50
        assert stats.entries_rejected == 1
        assert stats.bytes_ingested == 50 * 10
        assert stats.chunks_created == 50
