"""Tests for the queryx planner: merge classes, needles, subquery grids."""

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import hours, minutes
from repro.loki.logql.parser import parse
from repro.queryx.planner import (
    MERGE_CONCAT,
    MERGE_MAX,
    MERGE_MIN,
    MERGE_NONE,
    MERGE_SUM,
    QueryPlanner,
    line_filter_needles,
    merge_class,
)


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


class TestLineFilterNeedles:
    def test_contains_needles_extracted(self):
        expr = parse('{app="fm"} |= "GPU memory" |= "error"')
        assert line_filter_needles(expr) == ("GPU memory", "error")

    def test_non_contains_ops_ignored(self):
        expr = parse('{app="fm"} != "noise" |~ "e+" |= "keep"')
        assert line_filter_needles(expr) == ("keep",)

    def test_filters_after_line_format_dropped(self):
        # After line_format the filter sees a rewritten line, not the
        # stored one — gating on it would be unsound.
        expr = parse(
            '{app="fm"} |= "before" | line_format "x" |= "after"'
        )
        assert line_filter_needles(expr) == ("before",)

    def test_short_needles_dropped(self):
        expr = parse('{app="fm"} |= "ab" |= "abc"')
        assert line_filter_needles(expr) == ("abc",)

    def test_metric_query_reaches_pipeline(self):
        expr = parse('sum(count_over_time({app="fm"} |= "leak" [5m]))')
        assert line_filter_needles(expr) == ("leak",)
        expr = parse('topk(2, sum by (host) (rate({app="fm"} |= "leak" [5m])) * 60) > -1')
        assert line_filter_needles(expr) == ("leak",)

    @pytest.mark.parametrize(
        "query",
        [
            'sum(rate({app="fm"} |= "leak" [5m])) / sum(rate({app="fm"}[5m]))',
            'sum(rate({app="fm"}[5m])) - sum(rate({app="fm"} |= "leak" [5m]))',
            'rate({app="fm"} |= "leak" [5m]) unless rate({app="fm"} |= "flap" [5m])',
            # Even the same filter twice: the plan gates all reads or none.
            'rate({app="fm"} |= "leak" [5m]) / rate({app="fm"} |= "leak" [1h])',
        ],
    )
    def test_two_pipelines_have_no_plan_wide_needles(self, query):
        # The plan's needles gate every read a subquery makes, so one
        # side's filter would skip the other side's chunks.
        assert line_filter_needles(parse(query)) == ()


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
        assert plan.needles == ("err",)
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


class TestPlannerValidation:
    def test_bad_construction(self):
        with pytest.raises(ValidationError):
            QueryPlanner(shard_count=0)
        with pytest.raises(ValidationError):
            QueryPlanner(split_ns=0)
