"""C1 — "OMNI is able to ingest at a rate of up to 400,000 messages per
second" (paper §III.C).

Measures real wall-clock ingest throughput of the warehouse for logs
(Loki path) and metrics (VictoriaMetrics path), over batch sizes.  We do
not expect to match the absolute production number (their OMNI is a
multi-node Elasticsearch/VM cluster; ours is one Python process) — the
bench establishes our simulator's envelope and that batch ingest scales
linearly.

The log sweep has two rows per batch size, fed by the same generator:
the bare store (entries grouped per stream, handed straight to
``LokiStore.push_stream``) and the front door (each line through
``publish_syslog`` → broker → ``LogLineConsumer.pump`` → chunk on a
planes-off framework).  Their ratio is what the Fig. 1 path costs a line
on top of storing it.
"""

import time

from repro.cluster.topology import ClusterSpec
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.planes import PLANES
from repro.loki.model import LogEntry
from repro.omni.warehouse import OmniWarehouse
from repro.workloads.loggen import SyslogGenerator
from repro.common.xname import XName

from conftest import report

NODES = [XName.parse(f"x1c0s{s}b0n{n}") for s in range(8) for n in range(2)]
# Set explicitly, so a REPRO_* environment cannot switch a plane on.
PLANES_OFF = {plane.flag: False for plane in PLANES}


def _prepare_logs(count):
    gen = SyslogGenerator(NODES, seed=0)
    logs = gen.generate(count, 0, 1000)
    by_stream = {}
    for g in logs:
        by_stream.setdefault(LabelSet(g.labels), []).append(
            LogEntry(g.timestamp_ns, g.line)
        )
    return by_stream


def _front_door(count):
    """Seconds for ``count`` generated lines to go from ``publish_syslog``
    to their chunks.  The clock stands still, so nothing else in the
    framework runs: the time is the Fig. 1 log path's alone."""
    fw = MonitoringFramework(
        FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1), **PLANES_OFF
        )
    )
    fw.start()
    logs = SyslogGenerator(NODES, seed=0).generate(count, fw.clock.now_ns, 1000)
    pod, stats = fw.syslog_consumer, fw.warehouse.loki.stats
    before = stats.entries_ingested
    t0 = time.perf_counter()
    for g in logs:
        fw.publish_syslog(g.labels, g.timestamp_ns, g.line)
    while pod.lag():
        pod.pump()
    dt = time.perf_counter() - t0
    assert stats.entries_ingested - before == count
    assert (pod.records_processed, pod.records_failed) == (count, 0)
    return dt


def test_c1_log_ingest_throughput(benchmark):
    by_stream = _prepare_logs(20_000)

    def ingest():
        w = OmniWarehouse(SimClock())
        for labels, entries in by_stream.items():
            w.loki.push_stream(labels, entries)
        return w

    w = benchmark.pedantic(ingest, rounds=3, iterations=1)
    assert w.loki.stats.entries_ingested == 20_000

    # Throughput sweep for the report.
    rows = ["batch_entries   bare_store_per_sec   front_door_per_sec   store/door"]
    for count in (1_000, 10_000, 50_000):
        streams = _prepare_logs(count)
        w = OmniWarehouse(SimClock())
        t0 = time.perf_counter()
        for labels, entries in streams.items():
            w.loki.push_stream(labels, entries)
        bare = count / (time.perf_counter() - t0)
        assert w.loki.stats.entries_ingested == count
        door = count / _front_door(count)
        rows.append(f"{count:>13}   {bare:>18,.0f}   {door:>18,.0f}   {bare / door:>10.1f}")
    rows.append(
        "\nbare store: entries grouped per stream, straight into LokiStore.push_stream"
        "\nfront door: each line publish_syslog -> broker -> LogLineConsumer.pump -> chunk,"
        "\n            planes off, clock standing still (no periodic work in the figure)"
        "\npaper claim: up to 400,000 msg/s on the production OMNI cluster"
        "\n(single-process Python simulator; shape to check: linear scaling "
        "with batch size, 1e4-1e6 msg/s envelope)"
    )
    report("C1_ingest_rate_logs", "\n".join(rows))


def test_c1_metric_ingest_throughput(benchmark):
    def ingest():
        w = OmniWarehouse(SimClock())
        ts = 0
        for i in range(20_000):
            w.ingest_metric(
                "node_temp_celsius", {"xname": str(NODES[i % len(NODES)])},
                35.0, ts + i,
            )
        return w

    w = benchmark.pedantic(ingest, rounds=3, iterations=1)
    assert w.tsdb.sample_count() == 20_000
