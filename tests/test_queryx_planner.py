"""Tests for the queryx planner: merge classes and subquery grids; and
the line-filter needles the engine hints to every read it makes."""

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock, hours, minutes
from repro.loki.chunks import ChunkPolicy
from repro.loki.logql.ast import LogPipeline
from repro.loki.logql.engine import LogQLEngine
from repro.loki.logql.parser import parse
from repro.loki.store import LokiStore
from repro.queryx import planner as planner_module
from repro.queryx.engine import ShardedQueryEngine
from repro.queryx.planner import (
    MERGE_CONCAT,
    MERGE_MAX,
    MERGE_MIN,
    MERGE_NONE,
    MERGE_SUM,
    SHARD_TARGET_BYTES,
    QueryPlanner,
    merge_class,
)
from tests.test_logql_range_equivalence import CountingSource
from tests.test_queryx_gateway import make_world, noisy_streams
from tests.tracing import off_tracer


class TestMergeClass:
    @pytest.mark.parametrize(
        "query,expected",
        [
            ('count_over_time({app="fm"}[5m])', MERGE_SUM),
            ('rate({app="fm"}[5m])', MERGE_SUM),
            ('bytes_over_time({app="fm"}[5m])', MERGE_SUM),
            ('sum_over_time({app="fm"} | unwrap v [5m])', MERGE_SUM),
            ('max_over_time({app="fm"} | unwrap v [5m])', MERGE_MAX),
            ('min_over_time({app="fm"} | unwrap v [5m])', MERGE_MIN),
            ('avg_over_time({app="fm"} | unwrap v [5m])', MERGE_NONE),
            ('sum(count_over_time({app="fm"}[5m]))', MERGE_SUM),
            ('max(max_over_time({app="fm"} | unwrap v [5m]))', MERGE_MAX),
            ('min(min_over_time({app="fm"} | unwrap v [5m]))', MERGE_MIN),
            # Mismatched outer/inner classes cannot decompose.
            ('sum(max_over_time({app="fm"} | unwrap v [5m]))', MERGE_NONE),
            ('max(count_over_time({app="fm"}[5m]))', MERGE_NONE),
            # avg/count vector aggs need cross-shard state.
            ('avg(count_over_time({app="fm"}[5m]))', MERGE_NONE),
            ('count(count_over_time({app="fm"}[5m]))', MERGE_NONE),
            # Comparisons filter on final values.
            ('sum(count_over_time({app="fm"}[5m])) > 5', MERGE_NONE),
            # A join, a set operator and a ranking need both sides whole.
            ('sum(rate({app="fm"} |= "err" [5m])) / sum(rate({app="fm"}[5m]))', MERGE_NONE),
            ('count_over_time({app="fm"}[5m]) > count_over_time({app="fm"}[1h])', MERGE_NONE),
            ('count_over_time({app="fm"}[5m]) and count_over_time({app="db"}[5m])', MERGE_NONE),
            ('count_over_time({app="fm"}[5m]) or count_over_time({app="db"}[5m])', MERGE_NONE),
            ('count_over_time({app="fm"}[5m]) unless count_over_time({app="db"}[5m])', MERGE_NONE),
            ('topk(3, count_over_time({app="fm"}[5m]))', MERGE_NONE),
            ('sum(bottomk(3, count_over_time({app="fm"}[5m])))', MERGE_NONE),
            ('{app="fm"} |= "err"', MERGE_CONCAT),
        ],
    )
    def test_classes(self, query, expected):
        assert merge_class(parse(query)) == expected


def leaf_hints(query):
    """The ``line_contains`` of every read ``LogQLEngine`` makes for
    ``query``, sorted (two leaves may be read in either order)."""
    source = CountingSource(LokiStore())
    engine = LogQLEngine(source)
    if isinstance(parse(query), LogPipeline):
        engine.query_logs(query, 0, int(hours(1)))
    else:
        engine.query_instant(query, int(hours(1)))
    return sorted(line_contains for _shard, line_contains in source.hints)


#: Two-leaf queries -> each leaf's own needles, never the other leaf's.
TWO_LEAVES = {
    'sum(rate({app="fm"} |= "leak" [5m])) / sum(rate({app="fm"}[5m]))': [(), ("leak",)],
    'sum(rate({app="fm"}[5m])) - sum(rate({app="fm"} |= "leak" [5m]))': [(), ("leak",)],
    'rate({app="fm"} |= "leak" [5m]) unless rate({app="fm"} |= "flap" [5m])': [
        ("flap",),
        ("leak",),
    ],
    'rate({app="fm"} |= "leak" [5m]) / rate({app="fm"} |= "leak" [1h])': [
        ("leak",),
        ("leak",),
    ],
}


class TestLineFilterNeedles:
    """What the engine hints to each read (``line_contains``): pruning
    aids a store with blooms may use, never a change to the answer."""

    def test_contains_needles_extracted(self):
        assert leaf_hints('{app="fm"} |= "GPU memory" |= "error"') == [
            ("GPU memory", "error")
        ]

    def test_repeated_needle_is_hinted_once(self):
        assert leaf_hints('{app="fm"} |= "leak" != "x" |= "leak"') == [("leak",)]

    def test_non_contains_ops_ignored(self):
        assert leaf_hints('{app="fm"} != "noise" |~ "e+" |= "keep"') == [("keep",)]

    def test_filters_after_line_format_dropped(self):
        # After line_format the filter sees a rewritten line, not the
        # stored one — gating on it would be unsound.
        query = '{app="fm"} |= "before" | line_format "x" |= "after"'
        assert leaf_hints(query) == [("before",)]

    def test_short_needles_dropped(self):
        # The engine hints a short needle too; the bloom gate drops it
        # before counting — shorter than a gram, it cannot veto a chunk.
        assert leaf_hints('{app="fm"} |= "ab" |= "abc"') == [("ab", "abc")]
        tiered, gateway, blooms = make_world(noisy_streams())
        LogQLEngine(tiered).query_logs('{app="fm"} |= "ab"', 0, int(hours(2)))
        assert blooms.needle_checks == 0
        assert gateway.chunks_skipped_total == 0

    def test_metric_query_reaches_pipeline(self):
        assert leaf_hints('sum(count_over_time({app="fm"} |= "leak" [5m]))') == [
            ("leak",)
        ]
        query = 'topk(2, sum by (host) (rate({app="fm"} |= "leak" [5m])) * 60) > -1'
        assert leaf_hints(query) == [("leak",)]

    @pytest.mark.parametrize("query", list(TWO_LEAVES))
    def test_two_pipelines_have_no_plan_wide_needles(self, query):
        # One side's filter must never skip the other side's chunks.
        assert leaf_hints(query) == TWO_LEAVES[query]

    def test_every_subquery_read_carries_its_shard_and_the_needles(self, monkeypatch):
        monkeypatch.setattr(planner_module, "SHARD_TARGET_BYTES", 0)  # an empty store shards
        source = CountingSource(LokiStore())
        planner = QueryPlanner(shard_count=2, split_ns=hours(1))
        engine = ShardedQueryEngine(source, SimClock(0), planner=planner, tracer=off_tracer())
        engine.query_logs('{app="fm"} |= "err"', minutes(30), hours(2))
        assert sorted(set(source.hints)) == [((0, 2), ("err",)), ((1, 2), ("err",))]
        assert len(source.hints) == 4  # two windows x two shards


class TestPlanRange:
    def test_time_and_shard_fanout(self):
        planner = QueryPlanner(shard_count=4, split_ns=hours(1))
        plan = planner.plan_range(
            'sum(count_over_time({app="fm"}[5m]))', 0, hours(3), minutes(1)
        )
        # 0..3h inclusive crosses 4 aligned windows x 4 shards.
        assert plan.time_splits == 4
        assert plan.shard_count == 4
        assert len(plan.subqueries) == 16
        assert plan.merge == MERGE_SUM
        assert not plan.is_log_query

    def test_windows_cover_range_without_overlap(self):
        planner = QueryPlanner(shard_count=1, split_ns=hours(1))
        plan = planner.plan_range(
            'count_over_time({app="fm"}[5m])', minutes(30), hours(2), minutes(5)
        )
        windows = [(s.start_ns, s.end_ns) for s in plan.subqueries]
        assert windows[0][0] == minutes(30)
        assert windows[-1][1] == hours(2)
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start == prev_end + 1

    def test_unshardable_runs_single_shard(self):
        planner = QueryPlanner(shard_count=4, split_ns=hours(1))
        plan = planner.plan_range(
            'avg_over_time({app="fm"} | unwrap v [5m])', 0, hours(2), minutes(1)
        )
        assert plan.shard_count == 1
        assert not plan.sharded
        assert planner.unsharded_plans == 1

    def test_indivisible_step_skips_time_split(self):
        planner = QueryPlanner(shard_count=4, split_ns=hours(1))
        plan = planner.plan_range(
            'sum(count_over_time({app="fm"}[5m]))', 0, hours(3), minutes(7)
        )
        assert plan.time_splits == 1  # still sharded, though
        assert plan.shard_count == 4

    def test_rejects_log_query_and_bad_params(self):
        planner = QueryPlanner()
        with pytest.raises(ValidationError):
            planner.plan_range('{app="fm"}', 0, hours(1), minutes(1))
        with pytest.raises(ValidationError):
            planner.plan_range(
                'count_over_time({app="fm"}[5m])', 0, hours(1), 0
            )
        with pytest.raises(ValidationError):
            planner.plan_range(
                'count_over_time({app="fm"}[5m])', hours(1), 0, minutes(1)
            )


class TestPlanLogs:
    def test_half_open_windows_abut(self):
        planner = QueryPlanner(shard_count=2, split_ns=hours(1))
        plan = planner.plan_logs('{app="fm"} |= "err"', minutes(30), hours(2))
        assert plan.is_log_query
        windows = sorted({(s.start_ns, s.end_ns) for s in plan.subqueries})
        assert windows[0][0] == minutes(30)
        assert windows[-1][1] == hours(2)  # exclusive end preserved
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start == prev_end

    def test_empty_range_yields_no_windows(self):
        planner = QueryPlanner(shard_count=2, split_ns=hours(1))
        plan = planner.plan_logs('{app="fm"}', hours(1), hours(1))
        assert all(s.start_ns >= s.end_ns for s in plan.subqueries)

    def test_rejects_metric_query(self):
        with pytest.raises(ValidationError):
            QueryPlanner().plan_logs(
                'count_over_time({app="fm"}[5m])', 0, hours(1)
            )


class TestSizedPlans:
    """A plan carries the windows its leaves read; below the target its
    size turns it into one subquery over the whole window, and at or
    above it leaves it as cut."""

    def test_a_log_plan_reads_its_window(self):
        plan = QueryPlanner().plan_logs('{app="fm"} |= "err"', minutes(30), hours(2))
        assert plan.reads == ((parse('{app="fm"}').matchers, minutes(30), hours(2)),)

    def test_a_range_plan_reads_each_distinct_leaf_widened_by_its_range(self):
        query = (
            'sum(rate({app="fm"} |= "err" [5m])) / sum(rate({app="fm"}[1h]))'
            ' or sum(rate({app="fm"} |= "err" [5m]))'
        )
        # Instants 0, 7m, ..., 56m: the last one on the grid, not 1h.
        plan = QueryPlanner().plan_range(query, 0, hours(1), minutes(7))
        fm = parse('{app="fm"}').matchers
        assert plan.reads == (
            (fm, 1 - minutes(5), minutes(56) + 1),
            (fm, 1 - hours(1), minutes(56) + 1),
        )

    @pytest.mark.parametrize("log", [True, False])
    def test_below_the_target_one_subquery_over_the_whole_window(self, log):
        planner = QueryPlanner(shard_count=4, split_ns=hours(1))
        if log:
            plan = planner.plan_logs('{app="fm"}', minutes(30), hours(3))
        else:
            plan = planner.plan_range(
                'sum(count_over_time({app="fm"}[5m]))', minutes(30), hours(3), minutes(1)
            )
        assert plan.time_splits > 1 and plan.shard_count == 4
        small = planner.sized(plan, SHARD_TARGET_BYTES - 1)
        [whole] = small.subqueries
        assert (whole.start_ns, whole.end_ns, whole.step_ns) == (
            minutes(30), hours(3), plan.subqueries[0].step_ns
        )
        assert (whole.index, whole.shard_index, whole.shard_count) == (0, 0, 1)
        assert (small.time_splits, small.shard_count) == (1, 1)
        assert (small.expr, small.merge, small.reads) == (plan.expr, plan.merge, plan.reads)
        assert planner.sized(plan, SHARD_TARGET_BYTES) is plan

    def test_the_target_is_one_default_chunk(self):
        assert SHARD_TARGET_BYTES == ChunkPolicy().target_size_bytes == 256 * 1024


class TestPlannerValidation:
    def test_bad_construction(self):
        with pytest.raises(ValidationError):
            QueryPlanner(shard_count=0)
        with pytest.raises(ValidationError):
            QueryPlanner(split_ns=0)
