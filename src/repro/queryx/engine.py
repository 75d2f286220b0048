"""ShardedQueryEngine: the queryx front door.

Implements the same ``query_range`` / ``query_logs`` surface as
:class:`~repro.loki.logql.engine.LogQLEngine`, so it can sit anywhere
the monolithic engine does (under the query-frontend cache, behind the
ruler) — but each call is planned into time × shard subqueries, executed
across the querier pool, and merged back exactly.  A plan of more than
one subquery is first sized: the source says how many bytes its reads
hold (``bytes_overlapping``, the sizing read every log store keeps),
and below the planner's target the plan is one subquery, dispatched and
accounted the same way.

Latency accounting: each subquery is priced by the pool's cost model
plus the *actual* cold object-store latency it incurred (measured as
the delta of a caller-supplied monotonic counter, normally the
store-gateway's ``fetch_latency_ns_total``).  The query's wall-clock is
the busiest worker's timeline; the serial figure is the timeline sum —
what the monolithic path would have paid.  Bench Q1 is the ratio.

With multi-tenancy on, the engine sits behind the tenancy
``QueryScheduler`` (through the query frontend): the scheduler times a
whole query as one ticket, and this pool times the subqueries inside it
(DESIGN §12).
"""

from __future__ import annotations

from typing import Callable

from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, seconds
from repro.common.vector import Series
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry
from repro.queryx import planner as planning
from repro.queryx.executor import QuerierPool, QuerierWorker
from repro.queryx.merger import merge_log_partials, merge_metric_partials
from repro.queryx.planner import QueryPlan, QueryPlanner, Subquery
from repro.tempo.model import SpanStatus
from repro.tempo.tracer import Tracer

#: Default slowness threshold: accounted wall-clock above this marks the
#: query slow (feeds the SlowQueries alert via the exporter).
DEFAULT_SLOW_QUERY_NS = int(seconds(2.0))


class ShardedQueryEngine:
    """Plan → fan out over the querier pool → merge, with accounting."""

    def __init__(
        self,
        source,
        clock: SimClock,
        planner: QueryPlanner | None = None,
        pool: QuerierPool | None = None,
        *,
        tracer: Tracer,
        cold_latency_fn: Callable[[], int] | None = None,
    ) -> None:
        self._source = source
        self._clock = clock
        self.planner = planner or QueryPlanner()
        self.pool = pool or QuerierPool()
        self.tracer = tracer
        self._cold_latency_fn = cold_latency_fn
        self.slow_query_threshold_ns = DEFAULT_SLOW_QUERY_NS
        #: One LogQLEngine per stream shard (``None``: unsharded);
        #: engines are stateless over the shared source, so caching
        #: them is free.
        self._engines: dict[tuple[int, int] | None, LogQLEngine] = {}
        self.queries_total = 0
        self.log_queries_total = 0
        self.subqueries_total = 0
        self.slow_queries_total = 0
        self.last_wall_ns = 0
        self.last_serial_ns = 0
        self.last_cold_ns = 0
        self.wall_ns_total = 0
        self.serial_ns_total = 0
        self.cold_ns_total = 0

    # ------------------------------------------------------------------
    # Public query surface (mirrors LogQLEngine)
    # ------------------------------------------------------------------
    def query_range(
        self, query, start_ns: int, end_ns: int, step_ns: int
    ) -> list[Series]:
        plan = self._sized(self.planner.plan_range(query, start_ns, end_ns, step_ns))
        partials = self._execute_plan(plan, phase=start_ns % step_ns)
        result = merge_metric_partials(plan, partials)
        self.queries_total += 1
        return result

    def query_logs(
        self, query, start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry]]]:
        plan = self._sized(self.planner.plan_logs(query, start_ns, end_ns))
        partials = self._execute_plan(plan, phase=0)
        result = merge_log_partials(partials)
        self.queries_total += 1
        self.log_queries_total += 1
        return result

    # ------------------------------------------------------------------
    # Execution internals
    # ------------------------------------------------------------------
    def _sized(self, plan: QueryPlan) -> QueryPlan:
        """The plan to run: a plan of one subquery as it is, any other
        after asking the source what its reads hold — each read counted
        no further than what is left of the target."""
        if len(plan.subqueries) == 1:
            return plan
        target = planning.SHARD_TARGET_BYTES
        size = 0
        for matchers, start_ns, end_ns in plan.reads:
            if size >= target:
                break
            size += self._source.bytes_overlapping(
                matchers, start_ns, end_ns, target - size
            )
        return self.planner.sized(plan, size)

    def _engine_for(self, sub: Subquery) -> LogQLEngine:
        shard = (sub.shard_index, sub.shard_count) if sub.shard_count > 1 else None
        engine = self._engines.get(shard)
        if engine is None:
            engine = self._engines[shard] = LogQLEngine(self._source, shard=shard)
        return engine

    def _run_subquery(self, plan: QueryPlan, sub: Subquery, phase: int):
        engine = self._engine_for(sub)
        if plan.is_log_query:
            return engine.query_logs(plan.expr, sub.start_ns, sub.end_ns)
        # First on-grid evaluation instant inside this inclusive window
        # (same arithmetic as the frontend's sub-query path).
        first = sub.start_ns + (phase - sub.start_ns) % sub.step_ns
        if first > sub.end_ns:
            return []
        return engine.query_range(plan.expr, first, sub.end_ns, sub.step_ns)

    def _execute_plan(self, plan: QueryPlan, phase: int):
        self.pool.reset_timelines()
        base_ns = self._clock.now_ns
        cold_deltas: dict[int, int] = {}
        attempts: list[tuple[Subquery, QuerierWorker, int, int, bool]] = []

        def execute(sub: Subquery):
            before = self._cold_latency_fn() if self._cold_latency_fn else 0
            partial = self._run_subquery(plan, sub, phase)
            after = self._cold_latency_fn() if self._cold_latency_fn else 0
            cold_deltas[sub.index] = after - before
            return partial

        def cost_of(sub: Subquery) -> int:
            return self.pool.cost_model(sub) + cold_deltas.get(sub.index, 0)

        def on_attempt(
            sub: Subquery, worker: QuerierWorker, cost: int, ok: bool
        ) -> None:
            attempts.append((sub, worker, worker.busy_ns - cost, worker.busy_ns, ok))

        results = self.pool.run(
            list(plan.subqueries), execute, cost_of, on_attempt
        )

        wall = self.pool.wall_ns()
        serial = self.pool.serial_ns()
        cold = sum(cold_deltas.values())
        self.subqueries_total += len(plan.subqueries)
        self.last_wall_ns = wall
        self.last_serial_ns = serial
        self.last_cold_ns = cold
        self.wall_ns_total += wall
        self.serial_ns_total += serial
        self.cold_ns_total += cold
        if wall > self.slow_query_threshold_ns:
            self.slow_queries_total += 1
        self._trace(plan, base_ns, wall, attempts)
        return results

    def _trace(self, plan, base_ns, wall_ns, attempts) -> None:
        root = self.tracer.record(
            "query-frontend",
            "queryx.query",
            start_ns=base_ns,
            end_ns=base_ns + wall_ns,
            attributes={
                "query": plan.query[:80],
                "merge": plan.merge,
                "subqueries": len(plan.subqueries),
                "shards": plan.shard_count,
                "time_splits": plan.time_splits,
            },
        )
        if root is None:
            return
        self.tracer.record(
            "query-frontend",
            "queryx.plan",
            root,
            start_ns=base_ns,
            end_ns=base_ns,
        )
        for sub, worker, start_off, end_off, ok in attempts:
            self.tracer.record(
                "querier",
                "queryx.subquery",
                root,
                start_ns=base_ns + start_off,
                end_ns=base_ns + end_off,
                attributes={
                    "worker": worker.worker_id,
                    "shard": f"{sub.shard_index}_of_{sub.shard_count}",
                    "window": f"{sub.start_ns}..{sub.end_ns}",
                },
                status=SpanStatus.OK if ok else SpanStatus.ERROR,
            )
        self.tracer.record(
            "query-frontend",
            "queryx.merge",
            root,
            start_ns=base_ns + wall_ns,
            end_ns=base_ns + wall_ns,
        )

    # ------------------------------------------------------------------
    # Accounting surface
    # ------------------------------------------------------------------
    def speedup(self) -> float:
        """Accumulated serial-vs-wall ratio (1.0 when nothing ran)."""
        if self.wall_ns_total <= 0:
            return 1.0
        return self.serial_ns_total / self.wall_ns_total

    def last_speedup(self) -> float:
        if self.last_wall_ns <= 0:
            return 1.0
        return self.last_serial_ns / self.last_wall_ns

    def stats(self) -> dict:
        return {
            "queries_total": self.queries_total,
            "log_queries_total": self.log_queries_total,
            "subqueries_total": self.subqueries_total,
            "slow_queries_total": self.slow_queries_total,
            "last_wall_ns": self.last_wall_ns,
            "last_serial_ns": self.last_serial_ns,
            "last_cold_ns": self.last_cold_ns,
            "wall_ns_total": self.wall_ns_total,
            "serial_ns_total": self.serial_ns_total,
            "cold_ns_total": self.cold_ns_total,
            "speedup": self.speedup(),
            **{f"pool_{k}": v for k, v in self.pool.counters().items()},
            "unsharded_plans": self.planner.unsharded_plans,
        }
