"""C8 — the paper's Loki deployment: "8 server nodes (that work as
Kubernetes worker nodes) and 4 virtual machines" (paper §IV).

Why 8 workers?  This bench sweeps the ingester count of the cluster the
framework itself runs — ``RingLokiCluster`` at replication factor 1, so
each stream is one ingester's work — over a fixed multi-stream corpus and
reports the ideal-parallel ingest speedup (total work / max per-ingester
work) plus the balance.

Expected shape: speedup grows near-linearly while streams >> shards,
then saturates — 8 shards is comfortably in the linear regime for a
Perlmutter-scale stream population.
"""

from repro.common.labels import LabelSet
from repro.common.xname import XName
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.ring.cluster import RingLokiCluster
from repro.workloads.loggen import SyslogGenerator

from conftest import report
from tests.tracing import off_tracer

N_LOGS = 20_000
NODES = [XName.parse(f"x1{c:03d}c{ch}s{s}b0n0")
         for c in range(4) for ch in range(4) for s in range(8)]


def _corpus():
    logs = SyslogGenerator(NODES, seed=5).generate(N_LOGS, 0, 1_000_000)
    streams = {}
    for g in logs:
        streams.setdefault(LabelSet(g.labels), []).append(
            LogEntry(g.timestamp_ns, g.line)
        )
    return PushRequest(
        streams=tuple(
            PushStream(labels, tuple(entries)) for labels, entries in streams.items()
        )
    )


def _ingest(request, ingesters):
    """Entries each ingester took: the per-worker work."""
    cluster = RingLokiCluster(ingesters=ingesters, replication_factor=1, tracer=off_tracer())
    cluster.push(request)
    return [i.store.stats.entries_ingested for i in cluster.ingesters.values()]


def test_c8_shard_scaling(benchmark):
    request = _corpus()
    counts = benchmark.pedantic(_ingest, args=(request, 8), rounds=3, iterations=1)
    assert sum(counts) == N_LOGS

    rows = [f"{'shards':>7} {'speedup':>8} {'busiest_shard':>14} {'idlest_shard':>13}"]
    speedups = {}
    for shards in (1, 2, 4, 8, 16):
        counts = _ingest(request, shards)
        speedups[shards] = sum(counts) / max(counts)
        rows.append(
            f"{shards:>7} {speedups[shards]:>7.2f}x {max(counts):>14} "
            f"{min(counts):>13}"
        )
    # Shape: monotone growth, 8 shards well past 4x.
    assert speedups[8] > speedups[4] > speedups[2] > speedups[1]
    assert speedups[8] > 4.0

    rows.append(
        f"\ncorpus: {N_LOGS} entries over {len(request.streams)} streams\n"
        "paper deployment: 8 Loki worker nodes — in the near-linear regime "
        "while distinct streams far outnumber shards."
    )
    report("C8_loki_scaling", "\n".join(rows))
