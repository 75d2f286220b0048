"""Tests for the querier pool: dispatch, accounting, crash retries."""

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import seconds
from repro.queryx.executor import AllQueriersDown, QuerierCrash, QuerierPool
from repro.queryx.planner import QueryPlanner

QUERY = 'sum(count_over_time({app="fm"}[5m]))'


def _plan(shards=4, span_hours=4):
    planner = QueryPlanner(shard_count=shards, split_ns=int(seconds(3600)))
    return planner.plan_range(
        QUERY, 0, int(seconds(3600 * span_hours)), int(seconds(60))
    )


class TestDispatch:
    def test_all_subqueries_executed_once(self):
        pool = QuerierPool(workers=4)
        plan = _plan()
        ran = []
        results = pool.run(list(plan.subqueries), lambda s: ran.append(s.index))
        assert len(results) == len(plan.subqueries)
        assert sorted(ran) == [s.index for s in plan.subqueries]
        assert pool.subqueries_executed == len(plan.subqueries)

    def test_least_busy_balances_workers(self):
        pool = QuerierPool(workers=4)
        plan = _plan(shards=4, span_hours=4)
        pool.run(list(plan.subqueries), lambda s: None)
        busy = pool.worker_busy()
        assert len(busy) == 4
        # Equal-cost subqueries spread evenly: all timelines equal.
        assert len(set(busy.values())) == 1

    def test_wall_is_max_serial_is_sum(self):
        pool = QuerierPool(workers=4)
        plan = _plan()
        pool.run(list(plan.subqueries), lambda s: None)
        busy = pool.worker_busy().values()
        assert pool.wall_ns() == max(busy)
        assert pool.serial_ns() == sum(busy)
        # With 4 workers over a uniform load, parallelism is real.
        assert pool.serial_ns() >= 3 * pool.wall_ns()

    def test_reset_timelines(self):
        pool = QuerierPool(workers=2)
        plan = _plan(shards=2)
        pool.run(list(plan.subqueries), lambda s: None)
        assert pool.wall_ns() > 0
        pool.reset_timelines()
        assert pool.wall_ns() == 0


class TestCrashRetry:
    def test_crashed_worker_retries_elsewhere(self):
        pool = QuerierPool(workers=4)
        pool.set_crashed("querier-0", True)
        plan = _plan()
        results = pool.run(list(plan.subqueries), lambda s: s.index)
        # Every subquery still produced its partial...
        assert [r for _, r in results] == [s.index for s in plan.subqueries]
        # ...and the dead worker's dispatches were discovered and retried.
        assert pool.retries_total > 0
        assert pool.crashes_seen == pool.retries_total
        # The crashed worker was charged dispatch overhead only.
        assert pool.worker("querier-0").busy_ns > 0
        assert pool.worker("querier-0").subqueries_run == 0

    def test_attempt_observer_sees_failures(self):
        pool = QuerierPool(workers=2)
        pool.set_crashed("querier-0", True)
        plan = _plan(shards=2, span_hours=1)
        attempts = []
        pool.run(
            list(plan.subqueries),
            lambda s: None,
            on_attempt=lambda sub, w, cost, ok: attempts.append((w.worker_id, ok)),
        )
        assert ("querier-0", False) in attempts
        assert all(ok for wid, ok in attempts if wid == "querier-1")

    def test_recovery_rejoins_pool(self):
        pool = QuerierPool(workers=2)
        pool.set_crashed("querier-0", True)
        plan = _plan(shards=2, span_hours=1)
        pool.run(list(plan.subqueries), lambda s: None)
        pool.set_crashed("querier-0", False)
        pool.reset_timelines()
        pool.run(list(plan.subqueries), lambda s: None)
        assert pool.worker("querier-0").subqueries_run > 0

    def test_all_queriers_down_raises(self):
        pool = QuerierPool(workers=2)
        pool.set_crashed("querier-0", True)
        pool.set_crashed("querier-1", True)
        plan = _plan(shards=2, span_hours=1)
        with pytest.raises(AllQueriersDown):
            pool.run(list(plan.subqueries), lambda s: None)

    def test_attempt_budget_exhausts(self):
        # With many crashed workers and few attempts, the budget runs
        # out before a live worker is found (late fault discovery: the
        # scheduler keeps trying dead queriers it hasn't learned about).
        pool = QuerierPool(workers=8)
        pool.max_attempts = 2
        for i in range(7):
            pool.set_crashed(f"querier-{i}", True)
        plan = _plan(shards=4, span_hours=1)
        with pytest.raises(QuerierCrash):
            pool.run(list(plan.subqueries), lambda s: None)


class TestSlowWorker:
    def test_straggler_drags_wall(self):
        fast = QuerierPool(workers=4)
        slow = QuerierPool(workers=4)
        slow.set_slow("querier-3", 10.0)
        plan = _plan()
        fast.run(list(plan.subqueries), lambda s: None)
        slow.run(list(plan.subqueries), lambda s: None)
        assert slow.wall_ns() > fast.wall_ns()
        assert slow.worker_busy()["querier-3"] == slow.wall_ns()

    def test_recovery_resets_factor(self):
        pool = QuerierPool(workers=2)
        pool.set_slow("querier-0", 5.0)
        pool.set_slow("querier-0", 1.0)
        assert pool.worker("querier-0").slow_factor == 1.0

    def test_rejects_speedup_factor(self):
        pool = QuerierPool(workers=1)
        with pytest.raises(ValidationError):
            pool.set_slow("querier-0", 0.5)


class TestCostModel:
    def test_span_proportional(self):
        pool = QuerierPool(workers=1)
        short = _plan(shards=1, span_hours=1).subqueries[0]
        long = _plan(shards=1, span_hours=8).subqueries
        assert pool.cost_model(short) < pool.cost_model(
            max(long, key=lambda s: s.span_ns)
        ) or len(long) > 1  # time-split may cap individual spans
        # Base overhead is always present.
        assert pool.cost_model(short) >= pool.exec_base_ns

    def test_custom_cost_fn_wins(self):
        pool = QuerierPool(workers=1)
        plan = _plan(shards=1, span_hours=1)
        pool.run(list(plan.subqueries), lambda s: None, cost_of=lambda s: 1234)
        assert pool.wall_ns() == 1234 * len(plan.subqueries)


class TestValidation:
    def test_bad_construction(self):
        with pytest.raises(ValidationError):
            QuerierPool(workers=0)
        with pytest.raises(ValidationError):
            QuerierPool(workers=1).worker("nope")
