"""R1 — replicated ingest: throughput vs replication factor, and zero
loss across an ingester kill/restart cycle.

Two questions the write path must answer before it replaces the single
LokiStore:

1. What does RF=3 cost?  Every entry is WAL-logged and stored three
   times, so physical work is ~3x RF=1 — the bench reports throughput
   for both plus the per-ingester balance the hash ring achieves.
2. Does quorum + WAL replay actually lose nothing?  The bench kills an
   ingester a third of the way through the corpus, restarts it (WAL
   replay) two thirds in, and asserts the final quorum read holds every
   stream of an uninterrupted run with the same entries in the same
   order (the streams themselves come in no promised order).
"""

import time

from repro.common.labels import LabelSet, label_matcher
from repro.common.xname import XName
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.ring.cluster import RingLokiCluster
from repro.workloads.loggen import SyslogGenerator

from conftest import report
from tests.tracing import off_tracer

N_LOGS = 12_000
INGESTERS = 8
MATCH_ALL = [label_matcher("hostname", "=~", ".+")]
NODES = [XName.parse(f"x1{c:03d}c{ch}s{s}b0n0")
         for c in range(4) for ch in range(4) for s in range(8)]


def _requests():
    """The corpus as many small pushes (a push per generated line batch
    keeps the kill point meaningful — one giant push would be atomic)."""
    logs = SyslogGenerator(NODES, seed=7).generate(N_LOGS, 0, 1_000_000)
    requests = []
    batch = {}
    for i, g in enumerate(logs):
        batch.setdefault(LabelSet(g.labels), []).append(
            LogEntry(g.timestamp_ns, g.line)
        )
        if (i + 1) % 100 == 0:
            requests.append(_as_request(batch))
            batch = {}
    if batch:
        requests.append(_as_request(batch))
    return requests


def _as_request(batch):
    return PushRequest(
        streams=tuple(
            PushStream(labels, tuple(entries))
            for labels, entries in batch.items()
        )
    )


def _ingest(requests, rf):
    cluster = RingLokiCluster(ingesters=INGESTERS, replication_factor=rf, tracer=off_tracer())
    start = time.perf_counter()
    for request in requests:
        cluster.push(request)
    elapsed = time.perf_counter() - start
    return cluster, elapsed


def test_r1_ring_ingest(benchmark):
    requests = _requests()

    def ingest_rf3():
        return _ingest(requests, rf=3)[0]

    cluster = benchmark.pedantic(ingest_rf3, rounds=3, iterations=1)
    assert cluster.distributor.entries_accepted == N_LOGS
    assert cluster.stats.entries_ingested == 3 * N_LOGS

    rows = [f"{'rf':>3} {'entries/s':>12} {'physical_entries':>17} "
            f"{'busiest':>8} {'idlest':>7}"]
    for rf in (1, 3):
        c, elapsed = _ingest(requests, rf)
        per_ingester = [
            i.store.stats.entries_ingested for i in c.ingesters.values()
        ]
        rows.append(
            f"{rf:>3} {N_LOGS / elapsed:>12.0f} "
            f"{c.stats.entries_ingested:>17} "
            f"{max(per_ingester):>8} {min(per_ingester):>7}"
        )

    # --- the kill/restart cycle -------------------------------------
    baseline, _ = _ingest(requests, rf=3)
    expect = baseline.select(MATCH_ALL, 0, 10**15)

    victim = "ingester-3"
    cluster = RingLokiCluster(ingesters=INGESTERS, replication_factor=3, tracer=off_tracer())
    third = len(requests) // 3
    for request in requests[:third]:
        cluster.push(request)
    cluster.crash_ingester(victim)
    for request in requests[third : 2 * third]:
        cluster.push(request)
    replayed = cluster.restart_ingester(victim)
    for request in requests[2 * third :]:
        cluster.push(request)

    got = cluster.select(MATCH_ALL, 0, 10**15)
    # No store orders its streams: the two reads meet theirs in different
    # orders, so they compare as a mapping, each stream's entries in order.
    assert len(dict(got)) == len(got)
    assert dict(got) == dict(expect), "kill/restart cycle must lose zero entries"
    assert cluster.distributor.entries_accepted == N_LOGS
    assert cluster.distributor.quorum_failures == 0
    health = cluster.ring_health()[victim]

    rows.append(
        f"\nkill/restart cycle: crashed {victim} at {third}/{len(requests)} "
        f"pushes, restarted at {2 * third}/{len(requests)}\n"
        f"WAL records replayed on restart: {replayed}\n"
        f"replica writes failed while down: "
        f"{cluster.distributor.replica_writes_failed}\n"
        f"victim crashes/restarts: {health['crashes']:.0f}/"
        f"{health['restarts']:.0f}\n"
        f"quorum read after recovery: every stream's entries identical to "
        f"the uninterrupted run's "
        f"({sum(len(e) for _, e in got)} entries over {len(got)} streams)\n"
        f"\ncorpus: {N_LOGS} entries in {len(requests)} pushes over "
        f"{INGESTERS} ingesters, write quorum 2/3."
    )
    report("R1_ring_ingest", "\n".join(rows))
