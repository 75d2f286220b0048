"""ShardedQueryEngine: merging, accounting, tracing, framework wiring."""

import pytest

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, hours, minutes, seconds
from repro.common.vector import Series
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.planes import PLANES
from repro.cluster.topology import ClusterSpec
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import LokiStore
from repro.queryx import planner as planner_module
from repro.queryx.engine import ShardedQueryEngine
from repro.queryx.executor import QuerierPool
from repro.queryx.merger import merge_log_partials, merge_metric_partials
from repro.queryx.planner import QueryPlanner, Subquery
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer
from tests.counting import counted
from tests.sharding import every_plan_shards  # noqa: F401
from tests.tracing import off_tracer

QUERY = 'sum(count_over_time({app="fm"}[30m]))'


def make_store(streams=6, entries=48):
    store = LokiStore()
    for i in range(streams):
        store.push(
            PushRequest.single(
                {"app": "fm", "host": f"n{i}"},
                [
                    (int(minutes(5 * j)) + i, f"line {i}-{j}")
                    for j in range(entries)
                ],
            )
        )
    return store


def make_engine(store, clock=None):
    clock = clock or SimClock(0)
    return ShardedQueryEngine(
        store,
        clock,
        planner=QueryPlanner(shard_count=4, split_ns=hours(1)),
        pool=QuerierPool(workers=4),
        tracer=off_tracer(),
    )


class TestMerger:
    def _plan(self, query=QUERY):
        planner = QueryPlanner(shard_count=2, split_ns=hours(1))
        return planner.plan_range(query, 0, int(hours(1)), int(minutes(30)))

    def test_sum_merge_adds_cells(self):
        plan = self._plan()
        labels = LabelSet({})
        partials = [
            (plan.subqueries[0], [Series(labels, ((0, 1.0), (int(minutes(30)), 2.0)))]),
            (plan.subqueries[1], [Series(labels, ((0, 3.0),))]),
        ]
        [series] = merge_metric_partials(plan, partials)
        assert series.points == ((0, 4.0), (int(minutes(30)), 2.0))

    def test_max_merge_takes_max(self):
        plan = QueryPlanner(shard_count=2, split_ns=hours(1)).plan_range(
            'max(max_over_time({app="fm"} | unwrap v [30m]))',
            0, int(hours(1)), int(minutes(30)),
        )
        labels = LabelSet({})
        partials = [
            (plan.subqueries[0], [Series(labels, ((0, 5.0),))]),
            (plan.subqueries[1], [Series(labels, ((0, 9.0),))]),
        ]
        [series] = merge_metric_partials(plan, partials)
        assert series.points == ((0, 9.0),)

    def test_merge_none_rejects_colliding_cells(self):
        plan = QueryPlanner(shard_count=1, split_ns=hours(1)).plan_range(
            'avg(count_over_time({app="fm"}[30m]))',
            0, int(hours(1)), int(minutes(30)),
        )
        labels = LabelSet({})
        fake_twin = Subquery(
            index=1, start_ns=0, end_ns=int(hours(1)),
            step_ns=int(minutes(30)), shard_index=0, shard_count=1,
        )
        partials = [
            (plan.subqueries[0], [Series(labels, ((0, 1.0),))]),
            (fake_twin, [Series(labels, ((0, 2.0),))]),
        ]
        with pytest.raises(ValidationError):
            merge_metric_partials(plan, partials)

    def test_log_merge_keeps_every_shards_entries(self):
        # Two shards' groups under one final label set (a label stage
        # collapsed their streams): an equal (ts, line) on both is two
        # writes, and the joined group is sorted.
        labels = LabelSet({"app": "fm"})
        a = [LogEntry(1, "x"), LogEntry(2, "y")]
        b = [LogEntry(2, "y"), LogEntry(3, "z")]
        plan = QueryPlanner(shard_count=2, split_ns=hours(1)).plan_logs(
            '{app="fm"}', 0, int(hours(1))
        )
        merged = merge_log_partials(
            [(plan.subqueries[1], [(labels, b)]), (plan.subqueries[0], [(labels, a)])]
        )
        [(got_labels, entries)] = merged
        assert got_labels == labels
        assert [(e.timestamp_ns, e.line) for e in entries] == [
            (1, "x"), (2, "y"), (2, "y"), (3, "z"),
        ]


class TestSizingBudget:
    """A plan is sized with one read of the index per leaf, and only when
    it has more than one subquery; a small plan is one data read."""

    def budget(self, run, store=None):
        store = store or make_store()
        with counted(LokiStore, "select_columns") as selects, counted(
            LokiStore, "bytes_overlapping"
        ) as sizings:
            run(make_engine(store))
        return selects.call_count, sizings.call_count

    def test_a_small_log_query_is_one_read(self):
        # Four hour windows x four shards, planned; one read, sized once.
        assert self.budget(lambda e: e.query_logs('{app="fm"}', 0, int(hours(4)))) == (1, 1)

    def test_a_small_range_query_is_one_read(self):
        assert self.budget(
            lambda e: e.query_range(QUERY, 0, int(hours(4)), int(minutes(10)))
        ) == (1, 1)

    def test_a_one_window_plan_is_not_sized(self):
        store = make_store()
        engine = ShardedQueryEngine(
            store, SimClock(0), planner=QueryPlanner(shard_count=1), tracer=off_tracer()
        )
        with counted(LokiStore, "bytes_overlapping") as sizings:
            engine.query_logs('{app="fm"}', 0, int(minutes(30)))
            engine.query_range(QUERY, 0, int(minutes(30)), int(minutes(10)))
        assert sizings.call_count == 0

    def test_a_plan_at_the_target_runs_as_cut(self, monkeypatch):
        monkeypatch.setattr(planner_module, "SHARD_TARGET_BYTES", 0)
        assert self.budget(lambda e: e.query_logs('{app="fm"}', 0, int(hours(4)))) == (16, 0)


@pytest.mark.usefixtures("every_plan_shards")
class TestAccounting:
    def test_wall_below_serial_with_speedup(self):
        store = make_store()
        engine = make_engine(store)
        frame = engine.query_range(QUERY, 0, int(hours(4)), int(minutes(10)))
        assert frame
        assert engine.last_wall_ns < engine.last_serial_ns
        assert engine.last_speedup() > 2.0
        assert engine.speedup() == engine.last_speedup()

    def test_slow_query_counter(self):
        store = make_store()
        engine = ShardedQueryEngine(
            store,
            SimClock(0),
            planner=QueryPlanner(shard_count=4, split_ns=hours(1)),
            pool=QuerierPool(workers=4),
            tracer=off_tracer(),
        )
        engine.slow_query_threshold_ns = 1  # everything is slow
        engine.query_range(QUERY, 0, int(hours(1)), int(minutes(10)))
        assert engine.slow_queries_total == 1

    def test_stats_shape(self):
        engine = make_engine(make_store())
        engine.query_range(QUERY, 0, int(hours(1)), int(minutes(10)))
        stats = engine.stats()
        assert stats["queries_total"] == 1
        assert stats["subqueries_total"] == len(
            engine.planner.plan_range(
                QUERY, 0, int(hours(1)), int(minutes(10))
            ).subqueries
        )
        assert stats["pool_retries_total"] == 0


@pytest.mark.usefixtures("every_plan_shards")
class TestTracing:
    def test_spans_recorded(self):
        clock = SimClock(0)
        traces = TraceStore()
        tracer = Tracer(traces, clock, sampling=1.0, seed=1)
        engine = ShardedQueryEngine(
            make_store(),
            clock,
            planner=QueryPlanner(shard_count=2, split_ns=hours(1)),
            pool=QuerierPool(workers=2),
            tracer=tracer,
        )
        engine.query_range(QUERY, 0, int(hours(1)), int(minutes(30)))
        names = [
            span.name
            for trace_id in traces.trace_ids()
            for span in traces.trace(trace_id)
        ]
        assert "queryx.query" in names
        assert "queryx.plan" in names
        assert "queryx.merge" in names
        assert names.count("queryx.subquery") == 4  # 2 windows x 2 shards


@pytest.mark.usefixtures("every_plan_shards")
class TestSchedulerPath:
    def test_the_query_is_the_fairness_unit(self):
        """All planes on: one range query is one scheduler ticket, and
        queryx still fans it out into subqueries on its own pool."""
        spec = ClusterSpec(
            cabinets=1, chassis_per_cabinet=1, slots_per_chassis=4,
            nodes_per_slot=2,
        )
        flags = {plane.flag: True for plane in PLANES}
        fw = MonitoringFramework(
            FrameworkConfig(cluster_spec=spec, **flags)
        )
        fw.run_for(minutes(10))
        end = fw.clock.now_ns
        start = end - int(minutes(10))
        query = 'sum(count_over_time({data_type=~".+"}[5m]))'
        submitted = sum(s.submitted for s in fw.scheduler.stats.values())
        subqueries = fw.queryx.subqueries_total
        ticket = fw.scheduler.submit("fake", query, start, end, int(minutes(1)))
        fw.run_for(seconds(30))  # scheduler drains its queue
        assert sum(s.submitted for s in fw.scheduler.stats.values()) == submitted + 1
        assert ticket.done and ticket.error is None
        assert fw.queryx.subqueries_total - subqueries > 1
        assert ticket.result == fw.logql.query_range(query, start, end, int(minutes(1)))
