"""Store-gateway pruning counters: considered vs fetched vs skipped."""

from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, hours, minutes
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
from repro.objstore.index import stream_fingerprint
from repro.queryx.bloom import BloomStore
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]


def make_world(streams, with_blooms=True, compact=True):
    clock = SimClock(0)
    hot = LokiStore(ChunkPolicy(target_size_bytes=128, max_age_ns=minutes(5)))
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    shipper = ChunkShipper(hot, objstore, index, clock, tracer=off_tracer())
    blooms = BloomStore(objstore) if with_blooms else None
    compactor = Compactor(objstore, index, clock, derived=(blooms,) if blooms else (),
        tracer=off_tracer())
    gateway = StoreGateway(objstore, index, clock, blooms=blooms, tracer=off_tracer())
    tiered = TieredLokiStore(hot, objstore, index, shipper, compactor, gateway)
    for labels, entries in streams:
        tiered.push_stream(LabelSet(labels), entries)
    clock.advance(hours(4))
    tiered.flush_all()
    tiered.flush_to_cold()
    if compact:
        compactor.run()
    return tiered, gateway, blooms


def noisy_streams(n_streams=4, n_entries=40):
    return [
        (
            {"app": "fm", "host": f"n{i}"},
            [
                LogEntry(int(minutes(2 * j)), f"routine heartbeat {i}-{j}")
                for j in range(n_entries)
            ],
        )
        for i in range(n_streams)
    ]


class TestConsideredAndFetched:
    def test_plain_select_fetches_everything_considered(self):
        tiered, gateway, _ = make_world(noisy_streams())
        gateway.select(MATCH_ALL, 0, int(hours(2)))
        assert gateway.last_chunks_considered > 0
        assert gateway.last_chunks_fetched == gateway.last_chunks_considered
        assert gateway.last_chunks_skipped == 0
        assert gateway.counters()["chunks_considered"] == gateway.last_chunks_considered

    def test_counters_accumulate_across_queries(self):
        tiered, gateway, _ = make_world(noisy_streams())
        gateway.select(MATCH_ALL, 0, int(hours(1)))
        first = gateway.counters()["chunks_considered"]
        gateway.select(MATCH_ALL, 0, int(hours(1)))
        assert gateway.counters()["chunks_considered"] == 2 * first

    def test_shard_hint_narrows_considered(self):
        streams = noisy_streams()
        tiered, gateway, _ = make_world(streams)
        gateway.select(MATCH_ALL, 0, int(hours(2)))
        full = gateway.last_chunks_considered
        # One shard of 4 sees only its own streams' refs.
        shard_counts = []
        for shard in range(4):
            gateway.select(MATCH_ALL, 0, int(hours(2)), shard=(shard, 4))
            shard_counts.append(gateway.last_chunks_considered)
        assert sum(shard_counts) == full
        assert max(shard_counts) < full

    def test_shard_hint_matches_fingerprint_partition(self):
        streams = noisy_streams()
        tiered, gateway, _ = make_world(streams)
        for labels_dict, _ in streams:
            labels = LabelSet(labels_dict)
            shard = stream_fingerprint(labels) % 4
            matchers = [label_matcher("host", "=", labels["host"])]
            [(got_labels, entries)] = gateway.select(
                matchers, 0, int(hours(2)), shard=(shard, 4)
            )
            assert got_labels == labels and entries
            for other in range(4):
                if other != shard:
                    assert (
                        gateway.select(matchers, 0, int(hours(2)), shard=(other, 4))
                        == []
                    )


class TestBloomSkipping:
    def needle_world(self):
        streams = noisy_streams()
        # Exactly one stream carries the needle.
        streams[0][1][7] = LogEntry(int(minutes(14)), "GPU memory error hit")
        return make_world(streams)

    def test_needle_query_skips_clean_chunks(self):
        tiered, gateway, blooms = self.needle_world()
        result = gateway.select(
            MATCH_ALL, 0, int(hours(2)), line_contains=("GPU memory error",)
        )
        assert gateway.last_chunks_skipped > 0
        assert (
            gateway.last_chunks_fetched + gateway.last_chunks_skipped
            == gateway.last_chunks_considered
        )
        assert 0.0 < gateway.skip_ratio() <= 1.0
        # Pruning is transparent: the needle entry is still returned.
        assert any(
            "GPU memory error" in e.line for _, es in result for e in es
        )

    def test_no_blooms_means_no_skips(self):
        tiered, gateway, _ = make_world(noisy_streams(), with_blooms=False)
        gateway.select(
            MATCH_ALL, 0, int(hours(2)), line_contains=("GPU memory error",)
        )
        assert gateway.last_chunks_skipped == 0

    def test_uncompacted_chunks_never_skipped(self):
        # Without a compactor pass no bloom block covers the refs, so
        # the gateway must fetch everything (conservatively).
        tiered, gateway, blooms = make_world(noisy_streams(), compact=False)
        gateway.select(
            MATCH_ALL, 0, int(hours(2)), line_contains=("GPU memory error",)
        )
        assert blooms.counters()["blocks"] == 0
        assert gateway.last_chunks_skipped == 0
        assert gateway.last_chunks_fetched == gateway.last_chunks_considered

    def test_skips_reduce_gets_paid(self):
        tiered, gateway, _ = self.needle_world()
        gateway.select(MATCH_ALL, 0, int(hours(2)))
        full_latency = gateway.last_query_latency_ns
        gateway.select(
            MATCH_ALL, 0, int(hours(2)), line_contains=("GPU memory error",)
        )
        assert gateway.last_query_latency_ns < full_latency
