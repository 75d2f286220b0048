"""Query planning: decompose one LogQL range query into subqueries.

The planner cuts along two independent axes:

- **Time.**  A range query is a loop over evaluation instants; any
  partition of the instants is exact, so every metric query time-splits.
  The cut points are the query-frontend's aligned windows (same
  function, same boundaries) so planner subqueries and frontend cache
  entries line up.  Log queries split on the same boundaries but with
  half-open windows, matching the store's ``[start, end)`` select.
- **Stream shard.**  Only when partial results can be recombined
  exactly.  Streams partition across shards by label-hash fingerprint,
  so a per-series value computed in one shard is the whole value *if*
  the aggregation distributes over the partition.  The planner is
  deliberately conservative: anything it cannot prove decomposable runs
  shard_count=1 (time-split only) and is still exact, just less
  parallel — the same posture real Loki takes, where only provably
  shardable AST shapes are rewritten into downstream queries.

Both cuts pay only on data worth cutting.  A plan carries the store
windows its leaves read; the engine asks its source how many bytes
those hold (``bytes_overlapping``, counted no further than the target)
and hands the figure to :meth:`QueryPlanner.sized`.  Below
:data:`SHARD_TARGET_BYTES` the plan is one subquery over the whole
window; at or above it, the plan as cut above (DESIGN §12, "Sizing a
plan").

Shardability (merge class per AST shape):

======================================  ==========================
top-level expression                    merge class
======================================  ==========================
count/rate/bytes/sum_over_time          sum   (counts add)
max_over_time                           max   (max of maxes)
min_over_time                           min
avg_over_time                           unshardable (needs counts)
sum|max|min(<matching-class inner>)     inherited from inner
avg/count vector aggs, nesting          unshardable
binary and set operators, topk          unshardable
log pipeline                            concat (streams disjoint)
======================================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.common.errors import ValidationError
from repro.common.labels import Matcher
from repro.common.simclock import hours
from repro.common.vectorlang import BinOp, SetExpr, TopK, VectorAgg, VectorOp
from repro.loki.chunks import ChunkPolicy
from repro.loki.frontend import aligned_windows
from repro.loki.logql.ast import Expr, LogPipeline, RangeAgg, RangeFunc
from repro.loki.logql.parser import parse

#: A plan whose reads hold fewer uncompressed bytes than one default
#: chunk runs as one subquery: below it a cut costs more than it splits.
SHARD_TARGET_BYTES = ChunkPolicy().target_size_bytes

#: Merge classes — how shard partials recombine per (labels, instant).
MERGE_SUM = "sum"
MERGE_MAX = "max"
MERGE_MIN = "min"
MERGE_NONE = "none"  # unshardable: single shard, time-split only
MERGE_CONCAT = "concat"  # log queries: shard streams are disjoint

_SUM_CLASS_FUNCS = frozenset(
    {
        RangeFunc.COUNT_OVER_TIME,
        RangeFunc.RATE,
        RangeFunc.BYTES_OVER_TIME,
        RangeFunc.BYTES_RATE,
        RangeFunc.SUM_OVER_TIME,
    }
)

_VECTOR_OP_CLASS = {
    VectorOp.SUM: MERGE_SUM,
    VectorOp.MAX: MERGE_MAX,
    VectorOp.MIN: MERGE_MIN,
}


def merge_class(expr: Expr) -> str:
    """The exact-recombination class for ``expr`` (see module table)."""
    if isinstance(expr, LogPipeline):
        return MERGE_CONCAT
    if isinstance(expr, RangeAgg):
        if expr.func in _SUM_CLASS_FUNCS:
            return MERGE_SUM
        if expr.func is RangeFunc.MAX_OVER_TIME:
            return MERGE_MAX
        if expr.func is RangeFunc.MIN_OVER_TIME:
            return MERGE_MIN
        return MERGE_NONE  # avg_over_time: sum/count don't travel
    if isinstance(expr, VectorAgg) and isinstance(expr.expr, RangeAgg):
        inner = merge_class(expr.expr)
        outer = _VECTOR_OP_CLASS.get(expr.op)
        # The outer op must agree with the inner class: sum-of-sums,
        # max-of-maxes, min-of-mins.  sum(max_over_time) would need every
        # series' full max before summing — not decomposable per shard.
        if outer is not None and outer == inner:
            return outer
        return MERGE_NONE
    # Binary and set operators (comparisons filter on *final* values, a
    # join needs both sides whole), topk, nested vector aggs: run unsharded.
    return MERGE_NONE


def _range_aggs(expr) -> Iterator[RangeAgg]:
    """The leaves of a metric expression: every range aggregation."""
    if isinstance(expr, RangeAgg):
        yield expr
    elif isinstance(expr, (VectorAgg, TopK)):
        yield from _range_aggs(expr.expr)
    elif isinstance(expr, (BinOp, SetExpr)):
        yield from _range_aggs(expr.lhs)
        yield from _range_aggs(expr.rhs)


@dataclass(frozen=True)
class Subquery:
    """One independently executable slice of the original query."""

    index: int
    start_ns: int
    end_ns: int
    step_ns: int  # 0 marks a log subquery (no evaluation grid)
    shard_index: int
    shard_count: int

    @property
    def span_ns(self) -> int:
        return self.end_ns - self.start_ns + (1 if self.step_ns else 0)


@dataclass(frozen=True)
class QueryPlan:
    """The full decomposition, ready for the executor pool."""

    query: str
    expr: Expr
    merge: str
    subqueries: tuple[Subquery, ...]
    time_splits: int
    shard_count: int
    #: ``(matchers, start_ns, end_ns)`` of each distinct store read the
    #: whole plan makes, half-open — the windows its size is asked for.
    reads: tuple[tuple[tuple[Matcher, ...], int, int], ...]

    @property
    def is_log_query(self) -> bool:
        return self.merge == MERGE_CONCAT

    @property
    def sharded(self) -> bool:
        return self.shard_count > 1


class QueryPlanner:
    """Cuts queries along aligned time windows and stream shards."""

    def __init__(self, shard_count: int = 4, split_ns: int = hours(1)) -> None:
        if shard_count < 1:
            raise ValidationError("shard_count must be >= 1")
        if split_ns <= 0:
            raise ValidationError("split interval must be positive")
        self.shard_count = shard_count
        self.split_ns = split_ns
        self.unsharded_plans = 0

    def plan_range(
        self, query: str | Expr, start_ns: int, end_ns: int, step_ns: int
    ) -> QueryPlan:
        """Plan a metric range query over instants ``start..end`` step."""
        if step_ns <= 0:
            raise ValidationError("step must be positive")
        if end_ns < start_ns:
            raise ValidationError("end before start")
        expr = parse(query) if isinstance(query, str) else query
        if isinstance(expr, LogPipeline):
            raise ValidationError("range plan requires a metric query")
        merge = merge_class(expr)
        shards = self.shard_count if merge != MERGE_NONE else 1
        # Same guard as the frontend: splitting must not move the
        # evaluation grid, so the step has to divide the split interval.
        if self.split_ns % step_ns == 0:
            windows = list(aligned_windows(start_ns, end_ns, self.split_ns))
        else:
            windows = [(start_ns, end_ns)]
        # A leaf reads (t - range, t] for every instant t, the first at
        # start and the last on the grid at or before end.
        last = end_ns - (end_ns - start_ns) % step_ns
        reads = tuple(
            dict.fromkeys(
                (leaf.pipeline.matchers, start_ns - leaf.range_ns + 1, last + 1)
                for leaf in _range_aggs(expr)
            )
        )
        return self._build(query, expr, merge, windows, step_ns, shards, reads)

    def plan_logs(
        self, query: str | Expr, start_ns: int, end_ns: int
    ) -> QueryPlan:
        """Plan a log query over the half-open window ``[start, end)``."""
        if end_ns < start_ns:
            raise ValidationError("end before start")
        expr = parse(query) if isinstance(query, str) else query
        if not isinstance(expr, LogPipeline):
            raise ValidationError("log plan requires a log query")
        # Half-open windows on the same aligned boundaries: [a, b] from
        # the inclusive generator becomes [a, b+1) for the store.
        windows = [
            (sub_start, sub_end + 1)
            for sub_start, sub_end in aligned_windows(
                start_ns, max(start_ns, end_ns - 1), self.split_ns
            )
        ]
        if windows:
            windows[-1] = (windows[-1][0], end_ns)
        reads = ((expr.matchers, start_ns, end_ns),)
        return self._build(
            query, expr, MERGE_CONCAT, windows, 0, self.shard_count, reads
        )

    def sized(self, plan: QueryPlan, window_bytes: int) -> QueryPlan:
        """``plan``, once its reads are known to hold ``window_bytes``
        uncompressed: below :data:`SHARD_TARGET_BYTES`, one subquery over
        the whole window, with no shard and no time split; at or above
        it, ``plan`` as it is.

        Binary, not ``ceil(bytes / target)`` shards: a plan that is cut
        is cut exactly as before, so a big read's accounted latency (and
        what the slow-query alert makes of it) does not move."""
        if window_bytes >= SHARD_TARGET_BYTES or len(plan.subqueries) == 1:
            return plan
        first, last = plan.subqueries[0], plan.subqueries[-1]
        whole = replace(first, end_ns=last.end_ns, shard_index=0, shard_count=1)
        return replace(plan, subqueries=(whole,), time_splits=1, shard_count=1)

    def _build(
        self,
        query: str | Expr,
        expr: Expr,
        merge: str,
        windows: list[tuple[int, int]],
        step_ns: int,
        shards: int,
        reads: tuple[tuple[tuple[Matcher, ...], int, int], ...],
    ) -> QueryPlan:
        subqueries = []
        for sub_start, sub_end in windows:
            for shard in range(shards):
                subqueries.append(
                    Subquery(
                        index=len(subqueries),
                        start_ns=sub_start,
                        end_ns=sub_end,
                        step_ns=step_ns,
                        shard_index=shard,
                        shard_count=shards,
                    )
                )
        if shards == 1 and merge != MERGE_CONCAT:
            self.unsharded_plans += 1
        return QueryPlan(
            query=query if isinstance(query, str) else "",
            expr=expr,
            merge=merge,
            subqueries=tuple(subqueries),
            time_splits=len(windows),
            shard_count=shards,
            reads=reads,
        )
