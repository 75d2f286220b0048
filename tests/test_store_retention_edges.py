"""Edge cases of LokiStore retention: delete_before / expired_entries.

Chunk-granularity retention has three subtle boundaries — chunks
straddling the cutoff, open (unsealed) chunks entirely before it, and
the exact-cutoff timestamp — and the preview (`expired_entries`) must
agree with the action (`delete_before`) on every one of them, because
the OMNI retention manager archives the preview and then deletes.
"""

from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import minutes
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore

LABELS = LabelSet({"app": "api"})
MATCH_ALL = [label_matcher("app", "=", "api")]


def small_chunks():
    return ChunkPolicy(target_size_bytes=128, max_age_ns=minutes(5))


def preview_count(store, cutoff):
    return sum(len(e) for _, e, _ts in store.expired_entries(cutoff))


class TestStraddlingChunks:
    def test_straddling_chunk_survives_whole(self):
        store = LokiStore()  # one big chunk spanning [0, 99]
        entries = [LogEntry(i, f"l{i}") for i in range(100)]
        store.push_stream(LABELS, entries)
        store.flush_all()
        assert preview_count(store, 50) == 0
        assert store.delete_before(50) == 0
        [(_, got)] = store.select(MATCH_ALL, 0, 10**6)
        assert got == entries  # even the pre-cutoff half is still there

    def test_chunk_boundary_aligned_cutoff(self):
        store = LokiStore(small_chunks())
        entries = [LogEntry(i * 1000, f"line number {i}") for i in range(64)]
        store.push_stream(LABELS, entries)
        store.flush_all()
        chunks = [c for _, c in store.sealed_chunks()]
        assert len(chunks) > 2
        # Cut exactly at the second chunk's first timestamp: chunk one
        # is wholly before, chunk two survives whole.
        cutoff = chunks[1].first_ts_ns
        doomed = preview_count(store, cutoff)
        assert doomed == chunks[0].entry_count
        assert store.delete_before(cutoff) == 1
        [(_, got)] = store.select(MATCH_ALL, 0, 10**9)
        assert got == entries[doomed:]


class TestOpenChunks:
    def test_open_chunk_before_cutoff_is_kept(self):
        """An unsealed chunk is never deleted, even if wholly stale —
        sealing is the shipper's/ager's job, not retention's."""
        store = LokiStore()
        store.push_stream(LABELS, [LogEntry(10, "a"), LogEntry(20, "b")])
        assert preview_count(store, 10**6) == 0
        assert store.delete_before(10**6) == 0
        assert store.chunk_count() == 1

    def test_sealing_makes_the_same_chunk_eligible(self):
        store = LokiStore()
        store.push_stream(LABELS, [LogEntry(10, "a"), LogEntry(20, "b")])
        store.flush_all()
        assert preview_count(store, 10**6) == 2
        assert store.delete_before(10**6) == 1
        assert store.chunk_count() == 0


class TestCutoffBoundary:
    def test_cutoff_is_exclusive_of_last_ts(self):
        """last_ts < cutoff deletes; last_ts == cutoff keeps — matching
        the half-open select convention."""
        store = LokiStore()
        store.push_stream(LABELS, [LogEntry(100, "edge")])
        store.flush_all()
        assert store.delete_before(100) == 0
        assert preview_count(store, 100) == 0
        assert store.delete_before(101) == 1

    def test_empty_store(self):
        store = LokiStore()
        assert store.delete_before(10**9) == 0
        assert store.expired_entries(10**9) == []


class TestPreviewActionAgreement:
    def test_preview_equals_action_across_mixed_streams(self):
        """expired_entries must enumerate exactly what delete_before
        drops — per stream, per chunk, including open-chunk exclusions."""
        store = LokiStore(small_chunks())
        streams = {
            LabelSet({"app": "api", "n": str(n)}): [
                LogEntry(i * 1000, f"stream {n} entry number {i}")
                for i in range(40 + n * 7)
            ]
            for n in range(4)
        }
        for labels, entries in streams.items():
            store.push_stream(labels, entries)
        store.flush_aged(10**18)  # age-seal every open chunk
        store.push_stream(  # re-open a fresh chunk on stream 0
            LabelSet({"app": "api", "n": "0"}), [LogEntry(10**6, "open tail")]
        )

        cutoff = 20_500
        doomed = store.expired_entries(cutoff)
        doomed_total = sum(len(e) for _, e, _ts in doomed)
        before = store.stats.entries_ingested
        dropped_chunks = store.delete_before(cutoff)
        assert dropped_chunks > 0
        # Everything previewed is gone; everything else survives.
        survivors = sum(
            len(e)
            for _, e in store.select(
                [label_matcher("app", "=", "api")], 0, 10**18
            )
        )
        assert survivors == before - doomed_total
        for labels, entries, _ts in doomed:
            remaining = {
                e.line
                for _, got in store.select(
                    [
                        label_matcher("app", "=", "api"),
                        label_matcher("n", "=", labels["n"]),
                    ],
                    0,
                    10**18,
                )
                for e in got
            }
            assert not remaining & {e.line for e in entries}
