"""Chaos: querier crashes and stragglers under the fault injector.

Deterministic end-to-end proof for the query engine's failure story:
kill a querier mid-window, run a sharded query, and show (a) the killed
worker's subqueries were discovered dead and retried elsewhere, (b) the
final frame is byte-identical to the monolithic answer, (c) repair
returns the worker to rotation, all with exact retry counts recorded in
the fault's detail.
"""

import pytest

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.errors import ValidationError
from repro.common.simclock import minutes
from repro.core.framework import FrameworkConfig, MonitoringFramework
from tests.sharding import every_plan_shards  # noqa: F401

pytestmark = pytest.mark.usefixtures("every_plan_shards")

QUERY = 'sum(count_over_time({data_type=~".+"}[5m]))'


def small_framework(**overrides):
    spec = ClusterSpec(
        cabinets=1, chassis_per_cabinet=1, slots_per_chassis=4, nodes_per_slot=2
    )
    cfg = FrameworkConfig(
        cluster_spec=spec,
        enable_query_engine=True,
        **overrides,
    )
    return MonitoringFramework(cfg)


def window(fw):
    """The last ten minutes of simulated time (the epoch is not zero)."""
    end = fw.clock.now_ns
    return end - minutes(10), end


class TestQuerierCrash:
    def test_crash_retries_and_result_exact(self):
        fw = small_framework()
        fw.run_for(minutes(10))
        start, end = window(fw)
        baseline = fw.logql.query_range(QUERY, start, end, minutes(1))
        assert baseline  # the world produced data

        fault = fw.faults.schedule(
            FaultKind.QUERIER_CRASH,
            "querier-1",
            delay_ns=0,
            duration_ns=minutes(5),
        )
        fw.run_for(minutes(1))  # the fault begins
        assert fw.queryx.pool.worker("querier-1").crashed

        frame = fw.queryx.query_range(QUERY, start, end, minutes(1))
        assert frame == fw.logql.query_range(QUERY, start, end, minutes(1))
        # The dead worker was dispatched to, discovered, and retried.
        assert fw.queryx.pool.retries_total > 0
        assert fw.queryx.pool.crashes_seen == fw.queryx.pool.retries_total

        fw.run_for(minutes(5))  # the fault ends
        assert not fw.queryx.pool.worker("querier-1").crashed
        assert fault.detail["retries_during"] == fault.detail[
            "retries_at_end"
        ] - fault.detail["retries_at_start"]
        assert fault.detail["retries_during"] > 0

    def test_recovered_worker_rejoins(self):
        fw = small_framework()
        fw.run_for(minutes(10))
        fw.faults.schedule(
            FaultKind.QUERIER_CRASH, "querier-0", delay_ns=0,
            duration_ns=minutes(1),
        )
        fw.run_for(minutes(2))
        start, end = window(fw)
        fw.queryx.query_range(QUERY, start, end, minutes(1))
        assert fw.queryx.pool.worker("querier-0").subqueries_run > 0

    def test_crash_determinism(self):
        """Two identical runs agree on results and retry accounting."""

        def run():
            fw = small_framework()
            fw.run_for(minutes(10))
            fw.faults.schedule(FaultKind.QUERIER_CRASH, "querier-1", delay_ns=0)
            fw.run_for(minutes(1))
            start, end = window(fw)
            frame = fw.queryx.query_range(QUERY, start, end, minutes(1))
            return frame, fw.queryx.pool.counters(), fw.queryx.pool.worker_busy()

        assert run() == run()


class TestSlowQuerier:
    def test_straggler_drags_wall_clock(self):
        fw = small_framework()
        fw.run_for(minutes(10))
        start, end = window(fw)
        fw.queryx.query_range(QUERY, start, end, minutes(1))
        healthy_wall = fw.queryx.last_wall_ns

        fw.faults.schedule(
            FaultKind.SLOW_QUERIER, "querier-2", delay_ns=0,
            duration_ns=minutes(3), factor=20.0,
        )
        fw.run_for(minutes(1))
        start, end = window(fw)
        frame = fw.queryx.query_range(QUERY, start, end, minutes(1))
        assert frame == fw.logql.query_range(QUERY, start, end, minutes(1))
        assert fw.queryx.last_wall_ns > healthy_wall

        fw.run_for(minutes(3))  # fault ends, factor resets
        assert fw.queryx.pool.worker("querier-2").slow_factor == 1.0

    def test_slow_querier_can_trip_slow_queries_signal(self):
        fw = small_framework()
        fw.queryx.slow_query_threshold_ns = int(minutes(1) // 600)
        fw.run_for(minutes(10))
        fw.faults.schedule(
            FaultKind.SLOW_QUERIER, "querier-0", delay_ns=0, factor=50.0,
        )
        fw.run_for(minutes(1))
        start, end = window(fw)
        before = fw.queryx.slow_queries_total
        fw.queryx.query_range(QUERY, start, end, minutes(1))
        assert fw.queryx.slow_queries_total > before
        scrape = fw.queryx_exporter.scrape().text()
        assert "queryx_slow_queries_recent" in scrape


class TestValidation:
    def test_querier_fault_requires_pool(self):
        spec = ClusterSpec(
            cabinets=1, chassis_per_cabinet=1, slots_per_chassis=4,
            nodes_per_slot=2,
        )
        fw = MonitoringFramework(FrameworkConfig(
            cluster_spec=spec, enable_query_engine=False,
        ))
        with pytest.raises(ValidationError):
            fw.faults.schedule(FaultKind.QUERIER_CRASH, "querier-0", delay_ns=0)
        fw.run_for(minutes(1))
