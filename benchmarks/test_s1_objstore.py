"""S1 — tiered object storage: the memory/latency trade, priced.

Two figures the tier stands on:

1. **Resident memory.**  With the tier off, every chunk ever ingested
   stays in ingester memory forever; with it on, sealed chunks ship to
   the object store and resident bytes stay bounded by the recent
   window.  The bench ingests an identical corpus both ways (RF-3 ring)
   and reports resident bytes, the reduction factor, and the replica
   dedup ratio (cold copy is 1x, not 3x).
2. **Cold-read latency.**  What that memory saving costs: an identical
   historical select served hot (resident) vs. cold (store-gateway,
   S3-profile accounted latency) — the number a query-sizing discussion
   starts from.
"""

from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, minutes
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.objstore import (
    ChunkShipper,
    Compactor,
    ObjectStore,
    ShipperIndex,
    StoreGateway,
    TieredLokiStore,
)
from repro.ring.cluster import RingLokiCluster
from repro.workloads.loggen import SyslogGenerator
from repro.common.xname import XName

from conftest import report
from tests.tracing import off_tracer

N_LOGS = 20_000
MATCH_ALL = [label_matcher("hostname", "=~", ".+")]
NODES = [
    XName.parse(f"x{c}c{ch}s{s}b0n0")
    for c in range(2) for ch in range(4) for s in range(4)
]
POLICY = ChunkPolicy(target_size_bytes=8 * 1024, max_age_ns=minutes(30))


def _requests():
    logs = SyslogGenerator(NODES, seed=11).generate(N_LOGS, 0, 1_000_000)
    batch = {}
    for g in logs:
        batch.setdefault(LabelSet(g.labels), []).append(
            LogEntry(g.timestamp_ns, g.line)
        )
    return PushRequest(
        streams=tuple(
            PushStream(labels, tuple(entries))
            for labels, entries in batch.items()
        )
    )


def _make_ring():
    return RingLokiCluster(ingesters=4, replication_factor=3, policy=POLICY, tracer=off_tracer())


def _run_tier_off(request):
    ring = _make_ring()
    ring.push(request)
    ring.flush_all()
    entries = sum(len(e) for _, e in ring.select(MATCH_ALL, 0, 10**18))
    return ring, entries


def _run_tier_on(request):
    clock = SimClock()
    ring = _make_ring()
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    shipper = ChunkShipper(ring, objstore, index, clock, tracer=off_tracer())
    compactor = Compactor(objstore, index, clock, tracer=off_tracer())
    gateway = StoreGateway(objstore, index, clock, tracer=off_tracer())
    tiered = TieredLokiStore(ring, objstore, index, shipper, compactor, gateway)
    tiered.push(request)
    tiered.flush_all()
    tiered.flush_to_cold()
    tiered.compact()
    entries = sum(len(e) for _, e in tiered.select(MATCH_ALL, 0, 10**18))
    return tiered, shipper, gateway, entries


def test_s1_objstore_tiering(benchmark):
    request = _requests()
    hot_ring, hot_entries = _run_tier_off(request)
    tiered, shipper, gateway, cold_entries = benchmark.pedantic(
        lambda: _run_tier_on(request), rounds=1, iterations=1
    )

    # Same corpus, same answers: the tier is invisible to the querier.
    assert cold_entries == hot_entries == N_LOGS
    resident_off = hot_ring.stored_bytes()
    resident_on = tiered.stored_bytes()
    assert resident_on < resident_off / 10
    # RF-3 cold copy is single: content-hash dedup collapsed replicas.
    assert abs(shipper.dedup_ratio() - 2 / 3) < 1e-9

    # Price one historical window, hot vs cold.
    window = (5_000 * 1_000_000, 15_000 * 1_000_000)
    hot_got = sum(
        len(e) for _, e in hot_ring.select(MATCH_ALL, *window)
    )
    cold_got = sum(len(e) for _, e in tiered.select(MATCH_ALL, *window))
    assert cold_got == hot_got
    cold_ms = gateway.last_query_latency_ns / 1e6
    assert cold_ms > 0.0  # accounted S3 latency; hot reads charge none

    rows = [
        f"{'tier':<10} {'resident_B':>12} {'cold_B':>12} "
        f"{'entries':>9} {'win_query_ms':>13}",
        f"{'off':<10} {resident_off:>12,} {0:>12,} {hot_entries:>9,} "
        f"{0.0:>13.1f}",
        f"{'on':<10} {resident_on:>12,} {tiered.cold_bytes():>12,} "
        f"{cold_entries:>9,} {cold_ms:>13.1f}",
        "",
        f"resident bytes freed: {resident_off - resident_on:,} of "
        f"{resident_off:,} "
        f"(RF-3 ring, {N_LOGS:,} entries, 8 KiB chunk target)",
        f"replica dedup ratio at ship time: {shipper.dedup_ratio():.3f} "
        f"(= (RF-1)/RF: three hot copies, one cold object)",
        f"cold objects after compaction: {tiered.cold_chunk_count():,} "
        f"({tiered.cold_bytes():,} bytes)",
        "",
        "tiering contract: identical query answers either way; the cold "
        "tier trades accounted S3 read latency (~15 ms/GET + transfer) "
        "for bounded ingester memory.",
    ]
    report("S1_objstore_tiering", "\n".join(rows))
