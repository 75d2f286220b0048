"""Query-engine exporter: the sharded read path's health for vmagent.

The headline alert signal is ``queryx_slow_queries_recent``: queries
whose accounted wall-clock crossed the slowness threshold since the
last scrape.  As a since-last-scrape delta it self-resolves — one bad
dashboard refresh fires ``SlowQueries`` once and the gauge falls back
to zero on the next quiet scrape — matching how the tenancy exporter
surfaces admission rejections.

Alongside: fan-out volume (subqueries per query), the wall-vs-serial
latency pair whose ratio is the realized speedup, per-worker busy
timelines (a straggler shows up as one tall bar), retry/crash counters
from the chaos faults, and the bloom story — chunks considered vs
fetched vs skipped at the store-gateway, plus resident block counts.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.simclock import NANOS_PER_SECOND
from repro.exporters.deltas import RecentDelta
from repro.exporters.exporter import Exporter, Reading
from repro.objstore.gateway import StoreGateway
from repro.queryx.bloom import BloomStore
from repro.queryx.engine import ShardedQueryEngine

_ENGINE = (
    ("queryx_queries_total", "counter",
     "Queries planned and executed by the sharded engine, by kind."),
    ("queryx_subqueries_total", "counter",
     "Subqueries fanned out across the querier pool."),
    ("queryx_unsharded_plans_total", "counter",
     "Plans the planner refused to shard (time-split only)."),
    ("queryx_querier_workers", "gauge", "Querier workers in the pool, by liveness."),
    ("queryx_subquery_retries_total", "counter",
     "Subquery attempts lost to querier crashes and retried."),
    ("queryx_worker_busy_seconds", "gauge",
     "Accounted busy time per worker for the last query "
     "(stragglers show as one tall bar)."),
    ("queryx_last_query_seconds", "gauge",
     "Accounted latency of the last query: parallel wall-clock vs "
     "the serial single-querier equivalent."),
    ("queryx_speedup", "gauge",
     "Cumulative serial/wall ratio — the realized parallelism."),
    ("queryx_slow_queries_total", "counter",
     "Queries whose wall-clock crossed the slowness threshold."),
    ("queryx_slow_queries_recent", "gauge",
     "Slow queries since the last scrape (alert signal; "
     "self-resolves on the next quiet scrape)."),
)
_GATEWAY = (
    ("queryx_gateway_chunks_total", "counter",
     "Cold chunks considered vs fetched vs bloom-skipped."),
    ("queryx_bloom_skip_ratio", "gauge",
     "Fraction of considered chunks the blooms let us skip."),
)
_BLOOMS = (
    ("queryx_bloom_blocks", "gauge", "Bloom blocks resident in the store."),
    ("queryx_bloom_blocks_built_total", "counter",
     "Bloom blocks (re)built by the compactor."),
    ("queryx_bloom_needle_checks_total", "counter",
     "Needle membership tests against bloom blocks, by verdict."),
)


def _read_engine(
    engine: ShardedQueryEngine, recent_slow: RecentDelta
) -> Iterator[Reading]:
    metric_queries = engine.queries_total - engine.log_queries_total
    yield "queryx_queries_total", metric_queries, {"kind": "metric"}
    yield "queryx_queries_total", engine.log_queries_total, {"kind": "log"}
    yield "queryx_subqueries_total", engine.subqueries_total, None
    yield "queryx_unsharded_plans_total", engine.planner.unsharded_plans, None
    pool = engine.pool.counters()
    yield "queryx_querier_workers", pool["live_workers"], {"state": "live"}
    crashed = pool["workers"] - pool["live_workers"]
    yield "queryx_querier_workers", crashed, {"state": "crashed"}
    yield "queryx_subquery_retries_total", pool["retries_total"], None
    for worker_id, busy_ns in sorted(engine.pool.worker_busy().items()):
        busy = busy_ns / NANOS_PER_SECOND
        yield "queryx_worker_busy_seconds", busy, {"worker": worker_id}
    wall = engine.last_wall_ns / NANOS_PER_SECOND
    yield "queryx_last_query_seconds", wall, {"mode": "wall"}
    serial = engine.last_serial_ns / NANOS_PER_SECOND
    yield "queryx_last_query_seconds", serial, {"mode": "serial"}
    yield "queryx_speedup", engine.speedup(), None
    yield "queryx_slow_queries_total", engine.slow_queries_total, None
    recent = recent_slow.observe_scalar(engine.slow_queries_total)
    yield "queryx_slow_queries_recent", recent, None


def _read_gateway(gateway: StoreGateway) -> Iterator[Reading]:
    gw = gateway.counters()
    for disposition in ("considered", "fetched", "skipped"):
        chunks = gw[f"chunks_{disposition}"]
        yield "queryx_gateway_chunks_total", chunks, {"disposition": disposition}
    yield "queryx_bloom_skip_ratio", gateway.skip_ratio(), None


def _read_blooms(blooms: BloomStore) -> Iterator[Reading]:
    bl = blooms.counters()
    yield "queryx_bloom_blocks", bl["blocks"], None
    yield "queryx_bloom_blocks_built_total", bl["blocks_built"], None
    maybe = bl["needle_checks"] - bl["needle_rejections"]
    yield "queryx_bloom_needle_checks_total", maybe, {"verdict": "maybe"}
    absent = bl["needle_rejections"]
    yield "queryx_bloom_needle_checks_total", absent, {"verdict": "absent"}


class QueryxExporter(Exporter):
    """Exports planner, pool, merger and bloom-gate counters."""

    def __init__(
        self,
        engine: ShardedQueryEngine,
        gateway: StoreGateway | None = None,
        blooms: BloomStore | None = None,
    ) -> None:
        super().__init__(
            (_ENGINE, _read_engine, engine, RecentDelta()),
            (_GATEWAY, _read_gateway, gateway),
            (_BLOOMS, _read_blooms, blooms),
        )
