"""Derived blocks beside the chunks: bloom blocks and pattern blocks.

Both kinds live in the chunk bucket under one key layout and one codec.
These tests pin the bucket bytes a seeded world leaves under ``blooms/``
and ``patterns/`` (``TieredLokiStore.cold_bytes`` counts every one of
them), check that a cold rebuild reproduces each table, and that the
compactor fetches a stream-period group's chunks once however many
kinds it rebuilds from them.
"""

import hashlib
import random

from repro.common.labels import LabelSet
from repro.common.simclock import NANOS_PER_DAY, SimClock, minutes
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore
from repro.objstore import (
    ChunkShipper,
    CompactionPolicy,
    Compactor,
    ObjectStore,
    ShipperIndex,
)
from repro.patterns.ingester import PatternIngester
from repro.patterns.store import PatternStore
from repro.queryx.bloom import BloomStore
from tests.tracing import off_tracer

STREAMS = (
    LabelSet({"app": "api", "tenant": "ops"}),
    LabelSet({"app": "db", "tenant": "ops"}),
    LabelSet({"app": "fm", "tenant": "lab"}),
)
SHAPES = (
    "GET /v1/jobs/{} 200 in {}ms",
    "node x{}c0s{}b0n0 heartbeat ok",
    "disk error on sector {} retry {}",
    "link flap on port {} after {} seconds",
)

#: sha256 over the sorted ``(key, payload)`` pairs under ``blooms/`` and
#: ``patterns/`` that :func:`seeded_world` leaves in the bucket.
BUCKET_DIGEST = "b5348617a393cef0b17a334e5b64717b4d739a4ba969f3472aae87a81838b01a"


def lines_for(rng, labels, day, n):
    """``n`` seeded lines of one stream on one day."""
    base = day * NANOS_PER_DAY + minutes(60)
    return [
        LogEntry(
            base + i * minutes(7),
            rng.choice(SHAPES).format(rng.randrange(64), rng.randrange(1000)),
        )
        for i in range(n)
    ]


def ship(loki, objstore, index, clock):
    loki.flush_all()
    ChunkShipper(loki, objstore, index, clock, tracer=off_tracer()).flush()


def seeded_world():
    """Three streams over three days, shipped, mined and compacted twice.

    Days 1 and 2 are mined live; day 0 has no live block, so the
    compactor mines it from the shipped chunks.  Late lines and a second
    run move the coverage of two groups, so their blocks are rebuilt
    over the first ones.
    """
    rng = random.Random(30)
    clock = SimClock()
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    blooms = BloomStore(objstore)
    patterns = PatternStore(objstore, tracer=off_tracer())
    compactor = Compactor(
        objstore,
        index,
        clock,
        policy=CompactionPolicy(target_object_bytes=2048),
        derived=(blooms, patterns),
        tracer=off_tracer(),
    )
    ingester = PatternIngester(clock, patterns, tracer=off_tracer())
    loki = LokiStore(ChunkPolicy(target_size_bytes=512, max_age_ns=minutes(5)))
    for day in range(3):
        for labels in STREAMS:
            entries = lines_for(rng, labels, day, 40)
            loki.push_stream(labels, entries)
            if day > 0:
                ingester.observe(labels, entries)
    ship(loki, objstore, index, clock)
    patterns.persist_dirty()
    assert compactor.run().ok

    # A second ingester ships late day-0 lines of one stream.
    late = LokiStore(ChunkPolicy(target_size_bytes=512, max_age_ns=minutes(5)))
    late.push_stream(STREAMS[0], lines_for(rng, STREAMS[0], 0, 5))
    ship(late, objstore, index, clock)
    # Day 2 goes on live: its bloom is rebuilt, its live pattern block is not.
    more = [
        LogEntry(e.timestamp_ns + minutes(400), e.line)
        for e in lines_for(rng, STREAMS[1], 2, 6)
    ]
    loki.push_stream(STREAMS[1], more)
    ingester.observe(STREAMS[1], more)
    ship(loki, objstore, index, clock)
    patterns.persist_dirty()
    assert compactor.run().ok
    return objstore, index, blooms, patterns


def derived_digest(objstore):
    digest = hashlib.sha256()
    for prefix in ("blooms/", "patterns/"):
        for key in objstore.list_keys("loki", prefix):
            digest.update(key.encode())
            digest.update(objstore.get("loki", key))
    return digest.hexdigest()


def table(store):
    return {key: block.to_obj() for key, block in store._blocks.items()}


class TestBucketBytes:
    def test_derived_block_bytes_are_pinned(self):
        objstore, _index, blooms, patterns = seeded_world()
        origins = {block.origin for block in patterns._blocks.values()}
        assert origins == {"live", "compacted"}
        assert len(blooms._blocks) == 9
        assert derived_digest(objstore) == BUCKET_DIGEST

    def test_rebuild_reproduces_each_table(self):
        objstore, _index, blooms, patterns = seeded_world()
        cold_blooms = BloomStore(objstore)
        cold_patterns = PatternStore(objstore, tracer=off_tracer())
        assert cold_blooms.rebuild() == len(blooms._blocks)
        assert cold_patterns.rebuild() == len(patterns._blocks)
        for warm, cold in ((blooms, cold_blooms), (patterns, cold_patterns)):
            assert cold._blocks.keys() == warm._blocks.keys()
            for key, block in warm._blocks.items():
                assert cold._blocks[key].chunk_keys == block.chunk_keys
            assert table(cold) == table(warm)
        for key, block in patterns._blocks.items():
            assert cold_patterns._blocks[key].origin == block.origin


class TestOneFetchPerGroup:
    def test_cold_restart_fetches_each_chunk_once(self, monkeypatch):
        """Fresh stores hold no block, so every group is stale for both
        kinds; one run still GETs each of its chunks exactly once."""
        rng = random.Random(31)
        clock = SimClock()
        objstore = ObjectStore(clock)
        index = ShipperIndex(objstore)
        loki = LokiStore(ChunkPolicy(target_size_bytes=512, max_age_ns=minutes(5)))
        for day in range(2):
            for labels in STREAMS:
                loki.push_stream(labels, lines_for(rng, labels, day, 30))
        ship(loki, objstore, index, clock)
        chunk_keys = {ref.key for ref in index.refs()}
        assert len(chunk_keys) > len(STREAMS) * 2  # several chunks a group

        gets = []
        real_get = ObjectStore.get_with_latency

        def counting_get(self, bucket, key):
            gets.append(key)
            return real_get(self, bucket, key)

        monkeypatch.setattr(ObjectStore, "get_with_latency", counting_get)
        blooms = BloomStore(objstore)
        patterns = PatternStore(objstore, tracer=off_tracer())
        compactor = Compactor(
            objstore,
            index,
            clock,
            policy=CompactionPolicy(min_merge_chunks=1000),  # no merges
            derived=(blooms, patterns),
            tracer=off_tracer(),
        )
        assert compactor.run().ok
        assert sorted(gets) == sorted(chunk_keys)
        assert len(blooms._blocks) == len(patterns._blocks) == len(STREAMS) * 2
