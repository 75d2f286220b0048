"""C2 — "up to two years of operational data is immediately available
and more can be restored" (paper §III.C); HPE itself keeps "no more than
two months" (§I).

Simulates 30 months of daily log batches flowing into OMNI, runs one
lifecycle sweep, and verifies: (a) the hot window holds two years, (b)
older data is archived, not lost, and (c) the archive answers a read of
it, with no re-ingest.  Times the sweep.
"""

from repro.bus.broker import Broker
from repro.common.labels import label_matcher
from repro.common.simclock import SimClock, days
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import PushRequest
from repro.loki.store import LokiStore
from repro.omni.lifecycle import Lifecycle
from repro.omni.warehouse import OmniWarehouse

from conftest import report
from tests.tracing import off_tracer

MONTHS = 30
ENTRIES_PER_DAY = 24  # hourly summaries, enough to show the mechanism


def _build_warehouse():
    clock = SimClock(0)
    w = OmniWarehouse(clock, loki=LokiStore(ChunkPolicy(target_size_bytes=512)))
    for day in range(MONTHS * 30):
        base = days(day)
        entries = [
            (base + h * 3_600_000_000_000, f"day {day} hour {h} syslog summary line")
            for h in range(ENTRIES_PER_DAY)
        ]
        w.ingest_logs(PushRequest.single({"data_type": "syslog", "day_parity":
                                          str(day % 2)}, entries))
    clock.advance(days(MONTHS * 30))
    w.loki.flush_all()
    return clock, w


def test_c2_retention_and_restore(benchmark):
    clock, w = _build_warehouse()
    lifecycle = Lifecycle(clock, w.loki, w.tsdb, Broker(clock),
        tracer=off_tracer())  # two-year hot window
    total = w.loki.stats.entries_ingested

    moved = benchmark.pedantic(lifecycle.sweep, rounds=1, iterations=1)

    hot_span = w.history_span_days()
    # (a) hot window keeps roughly two years.
    assert 600 <= hot_span <= 760
    # (b) aged data moved to the archive, not dropped.
    assert moved > 0
    assert lifecycle.entries_archived == moved
    # (c) the oldest month reads straight from the archive.
    results = lifecycle.archive.select(
        [label_matcher("data_type", "=", "syslog")], 0, days(30)
    )
    restored = sum(len(entries) for _, entries in results)
    assert restored > 0
    assert any("day 0 hour 0" in e.line for _, entries in results for e in entries)

    report(
        "C2_retention",
        f"simulated span:        {MONTHS * 30} days ({MONTHS} months)\n"
        f"entries ingested:      {total}\n"
        f"entries archived:      {moved}\n"
        f"hot window now spans:  {hot_span:.0f} days "
        f"(paper: two years immediately available)\n"
        f"restored from archive: {restored} entries (oldest month)\n"
        f"archive bytes:         {lifecycle.objstore.stored_bytes()}",
    )
