"""Pattern blocks: live recording, queries, persistence, the compactor
rebuild path, and the cold ``detected_patterns`` answered from the bucket."""

import pytest

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import NANOS_PER_DAY, SimClock, minutes
from repro.loki.chunks import ChunkPolicy
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore
from repro.objstore import (
    ChunkShipper,
    Compactor,
    ObjectStore,
    ShipperIndex,
)
from repro.patterns.ingester import PatternIngester
from repro.patterns.store import PatternStore
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]
LABELS = LabelSet({"app": "api"})
OTHER = LabelSet({"app": "db"})


def observe_lines(store, lines, labels=LABELS, tenant="ops", start_ns=0):
    """Shorthand: mine lines through a throwaway miner into the store."""
    from repro.patterns.miner import DrainMiner

    miner = DrainMiner()
    for i, line in enumerate(lines):
        ts = start_ns + i
        cluster, _ = miner.add_line(line, ts)
        store.observe(tenant, labels, cluster.pattern_id, cluster.template, ts, line)


class TestObserveAndQuery:
    def test_query_merges_counts_per_pattern(self):
        store = PatternStore(tracer=off_tracer())
        observe_lines(store, [f"disk error on sector {i}" for i in range(5)])
        rows = store.query(MATCH_ALL, 0, 10)
        assert len(rows) == 1
        assert rows[0].count == 5
        assert "<*>" in rows[0].template

    def test_query_filters_by_matchers(self):
        store = PatternStore(tracer=off_tracer())
        observe_lines(store, ["api handler ok"], labels=LABELS)
        observe_lines(store, ["db checkpoint done"], labels=OTHER)
        rows = store.query([label_matcher("app", "=", "db")], 0, 10)
        assert len(rows) == 1
        assert "checkpoint" in rows[0].template

    def test_query_filters_by_tenant(self):
        store = PatternStore(tracer=off_tracer())
        observe_lines(store, ["x y z"], tenant="alpha")
        observe_lines(store, ["x y z"], tenant="beta")
        rows = store.query(MATCH_ALL, 0, 10, tenant="alpha")
        assert len(rows) == 1
        assert rows[0].count == 1

    def test_query_time_window_excludes_outside_records(self):
        store = PatternStore(tracer=off_tracer())
        observe_lines(store, ["link up now"], start_ns=100)
        assert store.query(MATCH_ALL, 0, 100) == []
        assert len(store.query(MATCH_ALL, 100, 101)) == 1

    def test_streams_counts_distinct_streams(self):
        store = PatternStore(tracer=off_tracer())
        # Same line shape on two streams → same pattern_id, streams=2.
        observe_lines(store, ["oom killed pid 1"], labels=LABELS)
        observe_lines(store, ["oom killed pid 2"], labels=OTHER)
        # One stream on a second day is still one stream.
        observe_lines(store, ["oom killed pid 3"], labels=OTHER, start_ns=NANOS_PER_DAY)
        rows = store.query(MATCH_ALL, 0, 2 * NANOS_PER_DAY)
        assert len(rows) == 1
        assert rows[0].streams == 2
        assert rows[0].count == 3

    def test_invalid_range_rejected(self):
        store = PatternStore(tracer=off_tracer())
        with pytest.raises(ValidationError):
            store.query(MATCH_ALL, 10, 10)

    def test_counts_by_pattern(self):
        store = PatternStore(tracer=off_tracer())
        observe_lines(store, ["a b c", "a b c"])
        counts = store.counts_by_pattern()
        assert len(counts) == 1
        ((tenant, _pid), (count, template)) = next(iter(counts.items()))
        assert tenant == "ops"
        assert count == 2
        assert template == "a b c"


class TestPersistence:
    def test_persist_and_rebuild_roundtrip(self):
        clock = SimClock()
        objstore = ObjectStore(clock)
        store = PatternStore(objstore, tracer=off_tracer())
        observe_lines(store, [f"fan {i} failed" for i in range(4)])
        written = store.persist_dirty()
        assert written == 1
        assert objstore.object_count("loki", prefix=PatternStore.prefix) == 1

        cold = PatternStore(objstore, tracer=off_tracer())
        assert cold.rebuild() == 1
        assert cold.query(MATCH_ALL, 0, 10) == store.query(MATCH_ALL, 0, 10)

    def test_outage_keeps_block_dirty_and_retries(self):
        clock = SimClock()
        objstore = ObjectStore(clock)
        store = PatternStore(objstore, tracer=off_tracer())
        observe_lines(store, ["power supply degraded"])
        objstore.set_outage(True)
        assert store.persist_dirty() == 0
        assert store.persist_failures == 1
        assert store.counters()["dirty"] == 1
        objstore.set_outage(False)
        assert store.persist_dirty() == 1
        assert store.counters()["dirty"] == 0

    def test_object_key_layout(self):
        assert PatternStore.object_key("ops", 0xAB, 3) == (
            "patterns/ops/000000000003/00000000000000ab.json.z"
        )

    def test_period_partitioning(self):
        store = PatternStore(tracer=off_tracer())
        observe_lines(store, ["tick a b"], start_ns=0)
        observe_lines(store, ["tick a b"], start_ns=NANOS_PER_DAY + 50)
        assert store.block_count == 2
        # Querying one period only sees that period's count.
        rows = store.query(MATCH_ALL, 0, NANOS_PER_DAY)
        assert rows[0].count == 1


class TestCompactorRebuild:
    def _tier(self):
        clock = SimClock()
        objstore = ObjectStore(clock)
        index = ShipperIndex(objstore)
        return clock, objstore, index

    def test_compactor_builds_blocks_from_shipped_chunks(self):
        clock, objstore, index = self._tier()
        patterns = PatternStore(objstore, tracer=off_tracer())
        compactor = Compactor(objstore, index, clock, derived=(patterns,), tracer=off_tracer())
        loki = LokiStore(ChunkPolicy(target_size_bytes=256, max_age_ns=minutes(5)))
        loki.push_stream(
            LABELS,
            [LogEntry(i, f"I/O error on sector {i}") for i in range(50)],
        )
        loki.flush_all()
        ChunkShipper(loki, objstore, index, clock, tracer=off_tracer()).flush()

        assert compactor.run().ok
        assert patterns.blocks_built >= 1
        assert objstore.object_count("loki", prefix=PatternStore.prefix) >= 1
        rows = patterns.query(MATCH_ALL, 0, 10**18)
        assert len(rows) == 1
        assert rows[0].count == 50

    def test_live_block_is_authoritative(self):
        """A period the live miner covered is never rebuilt."""
        clock, objstore, index = self._tier()
        patterns = PatternStore(objstore, tracer=off_tracer())
        observe_lines(patterns, ["seen live already"])
        assert not patterns.needs_build(
            "ops", LABELS, 0, ["chunks/whatever"]
        )

    def test_compacted_block_rebuilds_on_coverage_change(self):
        clock, objstore, index = self._tier()
        patterns = PatternStore(objstore, tracer=off_tracer())
        entries = [LogEntry(0, "one shot line")]
        patterns.build_block("ops", LABELS, 0, entries, ["k1"])
        assert not patterns.needs_build("ops", LABELS, 0, ["k1"])
        assert patterns.needs_build("ops", LABELS, 0, ["k1", "k2"])

    def test_idempotent_second_run(self):
        clock, objstore, index = self._tier()
        patterns = PatternStore(objstore, tracer=off_tracer())
        compactor = Compactor(objstore, index, clock, derived=(patterns,), tracer=off_tracer())
        loki = LokiStore()
        loki.push_stream(LABELS, [LogEntry(0, "steady line")])
        loki.flush_all()
        ChunkShipper(loki, objstore, index, clock, tracer=off_tracer()).flush()
        compactor.run()
        built = patterns.blocks_built
        compactor.run()
        assert built >= 1
        assert patterns.blocks_built == built


class TestColdPath:
    def test_rebuilt_store_answers_without_chunk_gets(self):
        clock = SimClock()
        objstore = ObjectStore(clock)
        patterns = PatternStore(objstore, tracer=off_tracer())
        observe_lines(patterns, [f"node {i} offline" for i in range(3)])
        patterns.persist_dirty()

        # A cold querier: rebuild the pattern view from object storage.
        cold = PatternStore(objstore, tracer=off_tracer())
        cold.rebuild()
        gets = objstore.gets
        rows = cold.query(MATCH_ALL, 0, 10)
        assert len(rows) == 1
        assert rows[0].count == 3
        assert objstore.gets == gets  # no chunk GET paid


STREAM_LABELS = (LabelSet({"job": "a"}), LabelSet({"job": "b"}), LabelSet({"job": "c"}))
SHAPES = (
    "fan {n} failed on node {m}",
    "link {n} down after {m} retries",
    "session opened for user {name} on the login node",  # one id, templates widen
)
NAMES = ("alice", "bob", "carol")


def engine_over(observations):
    """A LogQL engine over a pattern store fed ``(stream, day, shape)``
    observations."""
    clock = SimClock()
    store = PatternStore(tracer=off_tracer())
    ingester = PatternIngester(clock, store, tracer=off_tracer())
    for i, (stream, day, shape) in enumerate(observations):
        ts = day * NANOS_PER_DAY + minutes(10) + i
        line = SHAPES[shape].format(n=i, m=i * 7, name=NAMES[i % len(NAMES)])
        ingester.observe(STREAM_LABELS[stream], [LogEntry(ts, line)])
    return LogQLEngine(LokiStore(), patterns=store)


class TestEngineQuery:
    def test_streams_are_distinct_across_periods(self):
        # {job="a"}: p1 on day 0, p2 on days 0 and 1; {job="b"}: p1 on day 1.
        engine = engine_over([(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0)])
        rows = engine.detected_patterns('{job=~".+"}', 0, 2 * NANOS_PER_DAY)
        streams = {r.template.split()[0]: r.streams for r in rows}
        assert streams == {"fan": 2, "link": 1}
