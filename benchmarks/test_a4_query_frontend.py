"""A4 — ablation: the query frontend's split + results cache.

The single-pane-of-glass dashboard (paper Fig. 1) re-runs the same range
queries on every refresh.  This bench replays a dashboard refreshing a
six-hour window every 10 simulated minutes, with and without the query
frontend, and reports wall time and engine calls.

Expected shape: after the first refresh only the tip sub-window is
recomputed, so frontend refreshes are several times cheaper.
"""

import time

from repro.common.simclock import SimClock, hours, minutes
from repro.loki.frontend import QueryFrontend
from repro.loki.logql.engine import LogQLEngine
from repro.loki.store import LokiStore
from repro.common.labels import LabelSet
from repro.loki.model import LogEntry
from repro.workloads.loggen import SyslogGenerator
from repro.common.xname import XName

from conftest import report

QUERY = (
    'sum(count_over_time({data_type="syslog"} |= "error" [30m])) by (severity)'
)
REFRESHES = 12
WINDOW = hours(6)
NODES = [XName.parse(f"x1c0s{s}b0n0") for s in range(8)]


def _build():
    clock = SimClock(0)
    store = LokiStore()
    logs = SyslogGenerator(NODES, seed=2).generate(
        30_000, 0, hours(10) // 30_000
    )
    streams: dict[LabelSet, list[LogEntry]] = {}
    for g in logs:
        streams.setdefault(LabelSet(g.labels), []).append(
            LogEntry(g.timestamp_ns, g.line)
        )
    for labels, entries in streams.items():
        store.push_stream(labels, entries)
    clock.advance(hours(8))
    return clock, LogQLEngine(store)


def _refresh_loop(clock, run_query):
    for _ in range(REFRESHES):
        end = clock.now_ns
        run_query(QUERY, end - WINDOW, end, minutes(10))
        clock.advance(minutes(10))


def test_a4_frontend_cache(benchmark):
    # Without the frontend: every refresh recomputes the full window.
    clock, engine = _build()
    t0 = time.perf_counter()
    _refresh_loop(clock, engine.query_range)
    direct_s = time.perf_counter() - t0

    # With the frontend.
    clock, engine = _build()
    frontend = QueryFrontend(engine, clock, split_ns=hours(1))

    def run_with_frontend():
        _refresh_loop(clock, frontend.query_range)

    t0 = time.perf_counter()
    run_with_frontend()
    frontend_s = time.perf_counter() - t0

    benchmark.pedantic(
        lambda: frontend.query_range(
            QUERY, clock.now_ns - WINDOW, clock.now_ns, minutes(10)
        ),
        rounds=3,
        iterations=1,
    )

    assert frontend_s < direct_s
    assert frontend.hit_rate() > 0.5

    report(
        "A4_query_frontend",
        f"dashboard: {REFRESHES} refreshes of a 6h window, 10m step\n"
        f"direct engine:   {direct_s * 1e3:8.1f} ms total\n"
        f"query frontend:  {frontend_s * 1e3:8.1f} ms total "
        f"({direct_s / frontend_s:.1f}x faster)\n"
        f"cache hit rate:  {frontend.hit_rate():.0%}\n"
        f"sub-queries run: {frontend.splits_executed} "
        f"(vs {REFRESHES} full-window evaluations direct)\n"
        "shape: after the first refresh only the tip sub-window is "
        "recomputed — how the single pane of glass stays cheap.",
    )
