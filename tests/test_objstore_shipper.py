"""The chunk shipper: sealed chunks leave hot memory, durably and once.

Covers the flush contract (upload-then-drop, never free before durable),
content-hash dedup across RF-3 replicas, outage behaviour (chunks stay
resident, the stall signal rises, retry drains), the idle heartbeat, and
index persistence/rebuild.
"""

from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, minutes
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore
from repro.objstore import (
    HEARTBEAT_KEY,
    ChunkShipper,
    ObjectStore,
    ShipperIndex,
    StoreGateway,
)
from repro.ring.cluster import RingLokiCluster
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=", "api")]
LABELS = LabelSet({"app": "api"})


def small_chunks():
    return ChunkPolicy(target_size_bytes=256, max_age_ns=minutes(5))


def make_tier(source):
    clock = SimClock()
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    shipper = ChunkShipper(source, objstore, index, clock, tracer=off_tracer())
    return clock, objstore, index, shipper


def fill(store, n=200, start_ns=0, step_ns=1_000_000):
    entries = [
        LogEntry(start_ns + i * step_ns, f"log line number {i}") for i in range(n)
    ]
    store.push_stream(LABELS, entries)
    return entries


class TestFlush:
    def test_flush_ships_sealed_chunks_and_frees_memory(self):
        store = LokiStore(small_chunks())
        clock, objstore, index, shipper = make_tier(store)
        entries = fill(store)
        store.flush_all()
        resident_before = store.stored_bytes()
        chunks_before = store.chunk_count()
        assert chunks_before > 1

        result = shipper.flush()
        assert result.ok
        assert result.chunks_shipped == chunks_before
        assert result.chunks_deduped == 0
        assert result.bytes_freed == resident_before
        assert store.chunk_count() == 0
        assert store.stored_bytes() == 0
        # Every entry is durable cold and reads back identically.
        gateway = StoreGateway(objstore, index, clock, tracer=off_tracer())
        [(labels, got)] = gateway.select(MATCH_ALL, 0, 10**18)
        assert labels == LABELS and got == entries

    def test_open_chunks_stay_resident(self):
        store = LokiStore(small_chunks())
        clock, objstore, index, shipper = make_tier(store)
        # Too small to seal by size, too young by age.
        fill(store, n=3, start_ns=clock.now_ns)
        result = shipper.flush()
        assert result.chunks_shipped == 0
        assert store.stats.entries_ingested == 3
        assert store.chunk_count() == 1

    def test_flush_seals_aged_chunks_first(self):
        store = LokiStore(small_chunks())
        clock, objstore, index, shipper = make_tier(store)
        fill(store, n=3, start_ns=clock.now_ns)
        clock.advance(minutes(10))  # past max_age_ns
        result = shipper.flush()
        assert result.chunks_shipped == 1
        assert store.chunk_count() == 0

    def test_out_of_order_still_rejected_after_flush(self):
        store = LokiStore(small_chunks())
        _, _, _, shipper = make_tier(store)
        fill(store, n=50)
        store.flush_all()
        shipper.flush()
        # The stream watermark survives the chunks leaving memory.
        accepted = store.push_stream(LABELS, [LogEntry(0, "stale")])
        assert accepted == 0
        assert store.stats.entries_rejected == 1

    def test_idle_flush_probes_with_heartbeat(self):
        store = LokiStore(small_chunks())
        _, objstore, index, shipper = make_tier(store)
        result = shipper.flush()
        assert result.ok and result.chunks_shipped == 0
        assert objstore.head(index.bucket, HEARTBEAT_KEY)


class TestReplicaDedup:
    def test_rf3_uploads_one_object_per_logical_chunk(self):
        ring = RingLokiCluster(
            ingesters=4, replication_factor=3, policy=small_chunks(),
            tracer=off_tracer(),
        )
        clock, objstore, index, shipper = make_tier(ring)
        entries = fill(ring)
        ring.flush_all()
        result = shipper.flush()
        # Replicas seal byte-identical chunks: two of every three flushed
        # copies hit an existing content-addressed key.
        assert result.chunks_shipped > 0
        assert result.chunks_deduped == 2 * result.chunks_shipped
        assert abs(shipper.dedup_ratio() - 2 / 3) < 1e-9
        assert objstore.object_count(index.bucket, prefix="chunks/") == (
            result.chunks_shipped
        )
        # The cold copy is still exactly the corpus, once.
        gateway = StoreGateway(objstore, index, clock, tracer=off_tracer())
        [(_, got)] = gateway.select(MATCH_ALL, 0, 10**18)
        assert got == entries


class TestOutage:
    def test_outage_keeps_chunks_resident_and_counts_failures(self):
        store = LokiStore(small_chunks())
        clock, objstore, index, shipper = make_tier(store)
        fill(store)
        store.flush_all()
        chunks_before = store.chunk_count()

        objstore.set_outage(True)
        result = shipper.flush()
        assert not result.ok
        assert store.chunk_count() == chunks_before  # nothing was freed
        assert shipper.flush_failures == 1
        assert shipper.consecutive_failures == 1
        shipper.flush()
        assert shipper.consecutive_failures == 2

        # Recovery: the retry drains everything and the stall signal
        # returns to zero.
        objstore.set_outage(False)
        result = shipper.flush()
        assert result.ok and result.chunks_shipped == chunks_before
        assert store.chunk_count() == 0
        assert shipper.consecutive_failures == 0
        assert shipper.flush_failures == 2

    def test_partial_flush_never_loses_data(self):
        """An outage mid-flush leaves a consistent world: whatever was
        uploaded is indexed, whatever was not stays resident."""
        store = LokiStore(small_chunks())
        clock, objstore, index, shipper = make_tier(store)
        entries = fill(store)
        store.flush_all()

        # Fail the flush partway: allow 3 PUTs, then outage.
        real_put = objstore.put
        calls = {"n": 0}

        def flaky_put(bucket, key, data):
            calls["n"] += 1
            if calls["n"] > 3:
                objstore.set_outage(True)
            return real_put(bucket, key, data)

        objstore.put = flaky_put
        assert not shipper.flush().ok
        objstore.put = real_put
        objstore.set_outage(False)
        assert shipper.flush().ok

        gateway = StoreGateway(objstore, index, clock, tracer=off_tracer())
        [(_, cold)] = gateway.select(MATCH_ALL, 0, 10**18)
        hot = store.select(MATCH_ALL, 0, 10**18)
        got = cold + (hot[0][1] if hot else [])
        assert sorted(got, key=lambda e: e.timestamp_ns) == entries


class TestIndexPersistence:
    def test_rebuild_restores_refs_from_snapshots(self):
        store = LokiStore(small_chunks())
        clock, objstore, index, shipper = make_tier(store)
        fill(store)
        store.flush_all()
        shipper.flush()  # persists dirty periods
        live = {(r.key, r.entry_count) for r in index.refs()}
        assert live

        fresh = ShipperIndex(objstore)
        assert fresh.ref_count() == 0
        fresh.rebuild()
        assert {(r.key, r.entry_count) for r in fresh.refs()} == live

    def test_rebuild_resumes_sequence_numbers(self):
        store = LokiStore(small_chunks())
        _, objstore, index, shipper = make_tier(store)
        fill(store)
        store.flush_all()
        shipper.flush()
        files_before = set(objstore.list_keys(index.bucket, prefix="index/"))

        fresh = ShipperIndex(objstore)
        fresh.rebuild()
        # A post-rebuild persist must not clobber an existing snapshot.
        fill(store, start_ns=10**12)
        store.flush_all()
        ChunkShipper(store, objstore, fresh, SimClock(), tracer=off_tracer()).flush()
        files_after = set(objstore.list_keys(index.bucket, prefix="index/"))
        assert files_before < files_after
