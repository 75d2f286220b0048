#!/usr/bin/env python3
"""OMNI capacity exploration: ingest rate, storage economics, retention.

The paper's operational claims about OMNI (§I, §III.C) as an executable
notebook: measure log/metric ingest throughput, compare Loki's
label-index + compressed-chunk economics against a full-text index on
the same corpus, then fast-forward thirty months and show the two-year
hot window with archive restore.

Run:  python examples/omni_capacity.py
"""

import time

from repro.baselines.fulltext import FullTextLogStore
from repro.bus.broker import Broker
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, days
from repro.common.xname import XName
from repro.loki.chunks import ChunkPolicy
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import LokiStore
from repro.omni.lifecycle import Lifecycle
from repro.omni.warehouse import OmniWarehouse
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer
from repro.workloads.loggen import SyslogGenerator

NODES = [XName.parse(f"x1c0s{s}b0n{n}") for s in range(8) for n in range(2)]


def measure_ingest() -> None:
    print("=== Ingest throughput (single-process simulator) ===")
    for count in (5_000, 20_000, 80_000):
        logs = SyslogGenerator(NODES, seed=0).generate(count, 0, 1000)
        streams: dict[LabelSet, list[LogEntry]] = {}
        for g in logs:
            streams.setdefault(LabelSet(g.labels), []).append(
                LogEntry(g.timestamp_ns, g.line)
            )
        warehouse = OmniWarehouse(SimClock())
        start = time.perf_counter()
        for labels, entries in streams.items():
            warehouse.loki.push_stream(labels, entries)
        elapsed = time.perf_counter() - start
        print(f"  {count:>7,} log lines  ->  {count / elapsed:>10,.0f} lines/s")
    print("  (paper: production OMNI ingests up to 400,000 msg/s)")


def measure_storage() -> None:
    print("\n=== Storage economics: Loki vs full-text index ===")
    logs = SyslogGenerator(NODES, seed=1).generate(30_000, 0, 1000)
    loki = LokiStore()
    fulltext = FullTextLogStore()
    for g in logs:
        fulltext.ingest(g.labels, g.timestamp_ns, g.line)
    streams: dict[LabelSet, list[LogEntry]] = {}
    for g in logs:
        streams.setdefault(LabelSet(g.labels), []).append(
            LogEntry(g.timestamp_ns, g.line)
        )
    for labels, entries in streams.items():
        loki.push_stream(labels, entries)
    loki.flush_all()
    print(f"  loki index:      {loki.index_bytes():>12,} B "
          f"({loki.stream_count()} streams)")
    print(f"  fulltext index:  {fulltext.index_bytes():>12,} B "
          f"({fulltext.unique_tokens()} tokens)")
    print(f"  loki chunks:     {loki.stored_bytes():>12,} B "
          f"(compression {loki.compression_ratio():.1f}x)")
    print(f"  raw content:     {fulltext.stored_bytes():>12,} B")


def measure_retention() -> None:
    print("\n=== Two-year hot window + archive restore ===")
    clock = SimClock(0)
    # Small chunks, so the oldest months seal wholly past the window
    # (retention moves whole chunks, never a straddling one).
    warehouse = OmniWarehouse(clock, loki=LokiStore(ChunkPolicy(target_size_bytes=512)))
    for day in range(900):  # thirty months
        warehouse.ingest_logs(
            PushRequest.single(
                {"data_type": "syslog"},
                [(days(day), f"daily digest for day {day}")],
            )
        )
    clock.advance(days(900))
    warehouse.loki.flush_all()
    untraced = Tracer(TraceStore(), clock, sampling=0.0)
    lifecycle = Lifecycle(clock, warehouse.loki, warehouse.tsdb, Broker(clock), untraced)
    moved = lifecycle.sweep()
    print(f"  ingested 900 days; archived {moved} aged entries")
    print(f"  hot window now spans {warehouse.history_span_days():.0f} days")
    # Restore is a read: LogQL runs over the archive in place.
    archived = LogQLEngine(lifecycle.archive).query_logs(
        '{data_type="syslog"}', 0, days(60)
    )
    print(f"  read {sum(len(e) for _, e in archived)} entries of the oldest "
          f"60 days back from the archive")


if __name__ == "__main__":
    measure_ingest()
    measure_storage()
    measure_retention()
