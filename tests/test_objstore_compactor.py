"""The compactor: merge, dedup and delete requests, cold.

All cold-tier surgery happens here — these tests pin its two jobs
(merge small objects dropping divergent-replica duplicates, delete
requests), the chunk-granular cold delete the lifecycle's sweep reaches,
plus the index-file collapse and outage behaviour.
"""

import pytest

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, days, minutes
from repro.exporters.objstore_exporter import ObjstoreExporter
from repro.tenancy.limits import DEFAULT_TENANT
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore
from repro.objstore import (
    ChunkShipper,
    CompactionPolicy,
    Compactor,
    ObjectStore,
    ShipperIndex,
    StoreGateway,
)
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]
LABELS = LabelSet({"app": "api"})


def small_chunks():
    return ChunkPolicy(target_size_bytes=256, max_age_ns=minutes(5))


def make_tier(**compactor_kwargs):
    clock = SimClock()
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    compactor = Compactor(objstore, index, clock, tracer=off_tracer(), **compactor_kwargs)
    gateway = StoreGateway(objstore, index, clock, tracer=off_tracer())
    return clock, objstore, index, compactor, gateway


def ship(objstore, index, store, clock=None):
    store.flush_all()
    return ChunkShipper(store, objstore, index, clock or SimClock(), tracer=off_tracer()).flush()


def entries_for(n, start_ns=0, step_ns=1_000_000, tag=""):
    return [
        LogEntry(start_ns + i * step_ns, f"log line {tag}{i}") for i in range(n)
    ]


class TestMerge:
    def test_small_objects_merge_into_fewer_big_ones(self):
        clock, objstore, index, compactor, gateway = make_tier(
            policy=CompactionPolicy(target_object_bytes=1 << 20)
        )
        store = LokiStore(small_chunks())
        corpus = entries_for(400)
        store.push_stream(LABELS, corpus)
        ship(objstore, index, store)
        objects_before = objstore.object_count(index.bucket, prefix="chunks/")
        assert objects_before > 10

        result = compactor.run()
        assert result.ok
        assert result.chunks_merged == objects_before
        objects_after = objstore.object_count(index.bucket, prefix="chunks/")
        assert objects_after < objects_before
        assert objects_after == result.chunks_written
        assert result.duplicates_dropped == 0
        assert result.entries_in == result.entries_out == len(corpus)
        # The merged cold view is byte-for-byte the corpus.
        [(_, got)] = gateway.select(MATCH_ALL, 0, 10**18)
        assert got == corpus

    def test_single_chunk_groups_are_left_alone(self):
        clock, objstore, index, compactor, _ = make_tier()
        store = LokiStore()  # big default chunks: one per stream
        store.push_stream(LABELS, entries_for(10))
        ship(objstore, index, store)
        result = compactor.run()
        assert result.groups_examined == 1
        assert result.chunks_merged == 0
        assert index.ref_count() == 1

    def test_idempotent_second_run(self):
        clock, objstore, index, compactor, _ = make_tier()
        store = LokiStore(small_chunks())
        store.push_stream(LABELS, entries_for(400))
        ship(objstore, index, store)
        compactor.run()
        refs = {r.key for r in index.refs()}
        again = compactor.run()
        assert {r.key for r in index.refs()} == refs
        assert again.objects_deleted == 0

    def test_non_positive_target_size_rejected(self):
        with pytest.raises(ValidationError, match="target object size"):
            CompactionPolicy(target_object_bytes=0)


class TestReplicaDedup:
    def test_divergent_replica_chunks_dedup_at_merge(self):
        """Content hashing dedups identical replicas at ship time; a
        replica that diverged (crash window) ships as a second object —
        the compactor's merge is what collapses the shared entries."""
        clock, objstore, index, compactor, gateway = make_tier()
        shared = entries_for(50)
        replica_a = LokiStore(small_chunks())
        replica_a.push_stream(LABELS, shared)
        # Replica B saw one extra entry, so its chunks hash differently.
        extra = LogEntry(shared[-1].timestamp_ns + 1, "only on replica b")
        replica_b = LokiStore(small_chunks())
        replica_b.push_stream(LABELS, shared + [extra])
        ship(objstore, index, replica_a)
        ship(objstore, index, replica_b)
        # Chunk boundaries are deterministic, so every chunk *before* the
        # divergence point still deduped by content hash at ship time;
        # only the final chunk shipped twice, duplicating its entries.
        duplicated = index.entry_count() - (len(shared) + 1)
        assert duplicated > 0

        result = compactor.run()
        assert result.duplicates_dropped == duplicated
        [(_, got)] = gateway.select(MATCH_ALL, 0, 10**18)
        assert got == shared + [extra]
        assert index.entry_count() == len(shared) + 1


class TestRetention:
    def test_straddling_chunks_survive(self):
        clock, objstore, index, compactor, _ = make_tier()
        store = LokiStore()  # one big chunk straddling the cutoff
        now = clock.now_ns
        store.push_stream(LABELS, entries_for(20, start_ns=now - days(10)))
        ship(objstore, index, store)
        deleted = compactor.delete_chunks_before(now - days(10) + 1)
        assert deleted == 0
        assert index.ref_count() == 1

    def test_delete_chunks_before_is_chunk_granular(self):
        clock, objstore, index, compactor, _ = make_tier()
        store = LokiStore(small_chunks())
        now = clock.now_ns
        store.push_stream(LABELS, entries_for(200, start_ns=now - days(10)))
        ship(objstore, index, store)
        cutoff = now - days(10) + 100 * 1_000_000
        deleted = compactor.delete_chunks_before(cutoff)
        assert deleted > 0
        # Every surviving cold entry is either >= cutoff or shares a
        # chunk with one that is.
        assert all(r.last_ts_ns >= cutoff for r in index.refs())
        refs_left = index.ref_count()
        assert objstore.object_count(index.bucket, prefix="chunks/") == refs_left


class TestDeleteRequests:
    def test_request_deletes_wholly_inside_window_for_one_tenant(self):
        clock, objstore, index, compactor, gateway = make_tier()
        astro = LabelSet({"app": "api", "tenant": "astro"})
        fusion = LabelSet({"app": "api", "tenant": "fusion"})
        store = LokiStore(small_chunks())
        store.push_stream(astro, entries_for(200))
        store.push_stream(fusion, entries_for(200))
        ship(objstore, index, store)

        request = compactor.request_delete(
            "astro", [label_matcher("app", "=", "api")], 0, 10**18
        )
        result = compactor.run()
        assert result.delete_requests_processed == 1
        assert request.processed and request.chunks_deleted > 0
        assert index.entry_count("astro") == 0
        assert index.entry_count("fusion") == 200

    def test_exported_counts_are_chunks_not_requests(self):
        # Merging is off, so the request meets every shipped chunk.
        clock, objstore, index, compactor, gateway = make_tier(
            policy=CompactionPolicy(min_merge_chunks=1000)
        )
        store = LokiStore(small_chunks())
        store.push_stream(LABELS, entries_for(200))
        ship(objstore, index, store)
        chunks = index.ref_count()
        assert chunks > 2
        request = compactor.request_delete(
            DEFAULT_TENANT, [label_matcher("app", "=", "api")], 0, 10**12
        )
        compactor.run()
        assert request.chunks_deleted == chunks
        # The lifecycle's cold delete counts under reason="retention".
        store.push_stream(LABELS, entries_for(200, start_ns=10**12))
        ship(objstore, index, store)
        expired = compactor.delete_chunks_before(10**13)
        assert expired > 2
        text = ObjstoreExporter(
            objstore, index, ChunkShipper(store, objstore, index, clock,
                tracer=off_tracer()), compactor
        ).scrape().text()
        deleted = 'objstore_retention_chunks_deleted_total{reason="%s"} %s'
        assert deleted % ("request", float(chunks)) in text.splitlines()
        assert deleted % ("retention", float(expired)) in text.splitlines()

    def test_window_edges_are_chunk_granular(self):
        clock, objstore, index, compactor, _ = make_tier()
        store = LokiStore()  # one chunk spanning [0, 199ms]
        store.push_stream(LABELS, entries_for(200))
        ship(objstore, index, store)
        # Window covers most — but not all — of the chunk: it survives.
        compactor.request_delete(
            "__omni__", [label_matcher("app", "=", "api")], 0, 150 * 1_000_000
        )
        result = compactor.run()
        assert result.delete_requests_processed == 1
        assert index.ref_count() == 1

    def test_empty_window_rejected(self):
        _, _, _, compactor, _ = make_tier()
        with pytest.raises(ValidationError):
            compactor.request_delete("t", [], 10, 10)


class TestIndexFilesAndOutage:
    def test_run_collapses_index_snapshot_pile(self):
        clock, objstore, index, compactor, _ = make_tier()
        store = LokiStore(small_chunks())
        shipper = ChunkShipper(store, objstore, index, clock, tracer=off_tracer())
        for round_no in range(4):
            store.push_stream(
                LABELS, entries_for(100, start_ns=round_no * 10**9)
            )
            store.flush_all()
            shipper.flush()
        assert index.index_file_count() > 1
        result = compactor.run()
        assert result.index_files_removed > 0
        assert index.index_file_count() == 1
        # The single surviving snapshot still rebuilds the full index.
        fresh = ShipperIndex(objstore)
        fresh.rebuild()
        assert fresh.ref_count() == index.ref_count()

    def test_outage_aborts_run_and_counts_failure(self):
        clock, objstore, index, compactor, gateway = make_tier()
        store = LokiStore(small_chunks())
        corpus = entries_for(400)
        store.push_stream(LABELS, corpus)
        ship(objstore, index, store)
        objstore.set_outage(True)
        result = compactor.run()
        assert not result.ok
        assert compactor.run_failures == 1
        # Recovery: the next run completes and nothing was lost.
        objstore.set_outage(False)
        assert compactor.run().ok
        [(_, got)] = gateway.select(MATCH_ALL, 0, 10**18)
        assert got == corpus
