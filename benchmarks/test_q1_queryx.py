"""Q1 — sharded query engine: parallel speedup and bloom-gated skipping.

Three claims the engine stands on, priced on accounted sim-clock time
(the real ``perf_counter`` milliseconds each engine took in this process
are printed beside it — one thread, so sharding buys none of those back):

1. **Parallel speedup.**  A range query planned into time windows ×
   stream shards and executed on a 4-worker querier pool finishes in
   wall time = max over workers, against serial time = sum over
   subqueries.  The bench requires >= 2x with 4 workers.
2. **Bloom-gated skipping.**  A needle-in-haystack line filter lets the
   store-gateway consult compactor-built n-gram bloom blocks and skip
   chunks that cannot match; the skip ratio must be > 0 and the skips
   must shrink the accounted cold-read bill.
3. **Exactness.**  Both of the above are pure optimisations: every
   frame must be byte-identical to the monolithic engine's answer.

The world holds about 80 KB, below ``SHARD_TARGET_BYTES`` (one default
chunk): at the default the planner runs such a plan as one subquery.  So
the claims above are priced with the target at 0, on the plan as cut,
and a last row prints the default plan beside them — its subqueries,
accounted wall and real milliseconds.
"""

import time

from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, hours, minutes
from repro.loki.chunks import ChunkPolicy
from repro.loki.logql.engine import LogQLEngine
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
from repro.queryx import planner as planner_module
from repro.queryx.bloom import BloomStore
from repro.queryx.engine import ShardedQueryEngine
from repro.queryx.executor import QuerierPool
from repro.queryx.planner import QueryPlanner

from conftest import report
from tests.tracing import off_tracer

N_STREAMS = 16
N_ENTRIES = 240  # per stream, one every 90 s over 6 h
SPAN_NS = int(hours(6))
METRIC_QUERY = 'sum(count_over_time({app="fm"}[30m]))'
NEEDLE = "GPU memory page fault"
NEEDLE_QUERY = f'{{app="fm"}} |= "{NEEDLE}"'


def _world():
    clock = SimClock(0)
    hot = LokiStore(ChunkPolicy(target_size_bytes=1024, max_age_ns=minutes(10)))
    objstore = ObjectStore(clock)
    index = ShipperIndex(objstore)
    shipper = ChunkShipper(hot, objstore, index, clock, tracer=off_tracer())
    blooms = BloomStore(objstore)
    compactor = Compactor(objstore, index, clock, derived=(blooms,), tracer=off_tracer())
    gateway = StoreGateway(objstore, index, clock, blooms=blooms, tracer=off_tracer())
    tiered = TieredLokiStore(hot, objstore, index, shipper, compactor, gateway)
    step = SPAN_NS // N_ENTRIES
    for i in range(N_STREAMS):
        tiered.push_stream(
            LabelSet({"app": "fm", "host": f"nid{i:06d}"}),
            [
                LogEntry(
                    j * step + i,
                    NEEDLE if (i == 3 and j == 100) else f"routine mark {i}-{j}",
                )
                for j in range(N_ENTRIES)
            ],
        )
    clock.advance(hours(8))
    tiered.flush_all()
    tiered.flush_to_cold()
    compactor.run()
    return clock, tiered, gateway


def _engine(clock, tiered, workers):
    return ShardedQueryEngine(
        tiered,
        clock,
        planner=QueryPlanner(shard_count=4, split_ns=hours(1)),
        pool=QuerierPool(workers=workers),
        cold_latency_fn=lambda: tiered.gateway.fetch_latency_ns_total,
        tracer=off_tracer(),
    )


def _timed(fn):
    """``(result, real milliseconds)`` of one call."""
    started = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - started) * 1e3


def test_q1_queryx_speedup_and_skipping(benchmark, monkeypatch):
    clock, tiered, gateway = _world()
    mono = LogQLEngine(tiered)
    sharded = _engine(clock, tiered, workers=4)
    monkeypatch.setattr(planner_module, "SHARD_TARGET_BYTES", 0)  # every plan as cut

    step_ns = int(minutes(10))
    mono_frame, mono_real_ms = _timed(
        lambda: mono.query_range(METRIC_QUERY, 0, SPAN_NS, step_ns)
    )
    frame, sharded_real_ms = benchmark.pedantic(
        lambda: _timed(
            lambda: sharded.query_range(METRIC_QUERY, 0, SPAN_NS, step_ns)
        ),
        rounds=1,
        iterations=1,
    )

    # Exactness first: sharding must be invisible in the answer.
    assert frame == mono_frame and frame
    speedup = sharded.last_speedup()
    wall_ms = sharded.last_wall_ns / 1e6
    serial_ms = sharded.last_serial_ns / 1e6
    subqueries = sharded.subqueries_total
    assert speedup >= 2.0, f"4 workers must halve the wall clock: {speedup:.2f}x"

    # One worker degenerates to the monolithic schedule: wall == serial.
    single = _engine(clock, tiered, workers=1)
    single.query_range(METRIC_QUERY, 0, SPAN_NS, step_ns)
    assert single.last_wall_ns == single.last_serial_ns

    # Needle query: bloom blocks prune chunks that cannot match, the
    # accounted fetch bill shrinks, and the needle still comes back.
    mono_needle = mono.query_logs(NEEDLE_QUERY, 0, SPAN_NS)
    skipped_before = gateway.chunks_skipped_total
    considered_before = gateway.chunks_considered_total
    needle_got = sharded.query_logs(NEEDLE_QUERY, 0, SPAN_NS)
    assert needle_got == mono_needle
    assert sum(len(e) for _, e in needle_got) == 1
    skipped = gateway.chunks_skipped_total - skipped_before
    considered = gateway.chunks_considered_total - considered_before
    skip_ratio = skipped / considered if considered else 0.0
    assert skipped > 0, "needle filter must skip clean chunks via blooms"

    # The default target: the plan is sized, and this world is one subquery.
    monkeypatch.undo()
    sized = _engine(clock, tiered, workers=4)
    sized_frame, sized_real_ms = _timed(
        lambda: sized.query_range(METRIC_QUERY, 0, SPAN_NS, step_ns)
    )
    assert sized_frame == mono_frame
    assert sized.subqueries_total == 1
    sized_wall_ms = sized.last_wall_ns / 1e6
    plan = sized.planner.plan_range(METRIC_QUERY, 0, SPAN_NS, step_ns)
    window_bytes = sum(tiered.bytes_overlapping(*read, 10**9) for read in plan.reads)
    assert window_bytes < planner_module.SHARD_TARGET_BYTES

    rows = [
        f"{'engine':<14} {'workers':>7} {'subqueries':>10} "
        f"{'serial_ms':>10} {'wall_ms':>8} {'speedup':>8} {'real_ms':>8}",
        f"{'monolithic':<14} {1:>7} {1:>10} {serial_ms:>10.2f} "
        f"{serial_ms:>8.2f} {1.0:>7.2f}x {mono_real_ms:>8.1f}",
        f"{'sharded':<14} {4:>7} {subqueries:>10} {serial_ms:>10.2f} "
        f"{wall_ms:>8.2f} {speedup:>7.2f}x {sharded_real_ms:>8.1f}",
        f"{'default plan':<14} {4:>7} {sized.subqueries_total:>10} "
        f"{sized_wall_ms:>10.2f} {sized_wall_ms:>8.2f} {1.0:>7.2f}x {sized_real_ms:>8.1f}",
        "",
        f"plan: 6 h range split into 1 h windows x 4 stream shards "
        f"({N_STREAMS} streams, {N_STREAMS * N_ENTRIES:,} entries), with the "
        f"shard target at 0; the default plan sizes the window "
        f"({window_bytes:,} bytes, below the "
        f"{planner_module.SHARD_TARGET_BYTES:,}-byte target) "
        f"and runs it as one subquery",
        f"needle filter |= \"{NEEDLE}\": skipped {skipped:,} of "
        f"{considered:,} cold chunks (skip ratio {skip_ratio:.3f}), "
        f"needle still returned exactly once",
        "",
        "engine contract: identical frames to the monolithic engine; "
        "speedup is accounted sim-clock wall (max over workers) vs "
        "serial (sum over subqueries); real_ms is perf_counter wall in "
        "this one-threaded process (it varies run to run; nothing else "
        "here does); bloom skips have no false negatives, so pruning is "
        "exact.",
    ]
    report("Q1_queryx_sharded_engine", "\n".join(rows))
