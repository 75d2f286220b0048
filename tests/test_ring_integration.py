"""The ingest ring inside the assembled framework.

`enable_ingest_ring=True` swaps the warehouse's single LokiStore for the
replicated write path; everything downstream — LogQL, dashboards,
retention, chaos, tracing — must keep working, and the ring's own
health must surface as metrics, an alert and a dashboard.
"""

import pytest

from repro.bus.broker import Broker
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.errors import ValidationError
from repro.common.labels import label_matcher
from repro.common.simclock import SimClock, days, hours, minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import PushRequest
from repro.omni.lifecycle import Lifecycle
from repro.ring.cluster import RingLokiCluster
from repro.tsdb.storage import TimeSeriesStore
from repro.workloads.loggen import SyslogGenerator
from tests.tracing import off_tracer


def ring_config(**overrides):
    return FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
        enable_ingest_ring=True,
        **overrides,
    )


class TestConfig:
    def test_replication_bounded_by_ingesters(self):
        with pytest.raises(ValidationError, match="ring_ingesters must be >= 3"):
            ring_config(ring_ingesters=2)

    def test_ring_off_means_no_ring(self):
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2)
            )
        )
        assert fw.ring is None and fw.ring_exporter is None


class TestPipelineThroughRing:
    def test_logs_flow_and_are_replicated(self):
        fw = MonitoringFramework(ring_config())
        fw.start()
        gen = SyslogGenerator(sorted(fw.cluster.nodes)[:4], seed=0)
        for g in gen.generate(30, fw.clock.now_ns, seconds(1)):
            fw.publish_syslog(g.labels, g.timestamp_ns, g.line)
        fw.run_for(minutes(2))
        logs = fw.logql.query_logs(
            '{data_type="syslog"}', 0, fw.clock.now_ns + 1
        )
        assert sum(len(e) for _, e in logs) == 30
        # Acknowledged once, stored replication-factor times.
        accepted = fw.ring.distributor.entries_accepted
        assert accepted >= 30
        assert fw.ring.stats.entries_ingested == 3 * accepted

    def test_ring_metrics_reach_promql(self):
        fw = MonitoringFramework(ring_config())
        fw.run_for(minutes(3))
        up = fw.promql.query_instant(
            "sum(loki_ring_ingester_up)", fw.clock.now_ns
        )
        assert up[0].value == 4.0

    def test_health_summary_still_works(self):
        fw = MonitoringFramework(ring_config())
        fw.run_for(minutes(2))
        summary = fw.health_summary()
        assert summary["messages_ingested"] > 0
        assert summary["log_streams"] >= 0


class TestChaosFaults:
    def test_ingester_crash_fires_alert_and_recovers(self):
        fw = MonitoringFramework(ring_config())
        fw.start()
        fault = fw.faults.schedule(
            FaultKind.INGESTER_CRASH,
            "ingester-1",
            delay_ns=minutes(2),
            duration_ns=minutes(6),
        )
        fw.run_for(minutes(5))
        # Mid-fault: the exporter reports the member down...
        up = fw.promql.query_instant(
            'loki_ring_ingester_up{ingester="ingester-1"}', fw.clock.now_ns
        )
        assert up[0].value == 0.0
        assert not fw.ring.ingesters["ingester-1"].active
        fw.run_for(minutes(10))
        # ...the IngesterDown rule fired and notified...
        assert any("IngesterDown" in m.text for m in fw.slack.messages)
        # ...and fault end restarted the member with WAL replay.
        assert fw.ring.ingesters["ingester-1"].active
        assert "replayed" in fault.detail
        assert fault.detail["replayed"] == (
            fw.ring.ingesters["ingester-1"].records_replayed_total
        )

    def test_ingester_bounce_is_instantaneous(self):
        fw = MonitoringFramework(ring_config())
        fw.start()
        fw.run_for(minutes(3))
        fault = fw.faults.schedule(FaultKind.INGESTER_RESTART, "ingester-0")
        fw.run_for(minutes(1))
        assert not fault.active
        assert fw.ring.ingesters["ingester-0"].active
        assert fault.detail["replayed"] >= 0

    def test_ingester_fault_without_ring_rejected(self):
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2)
            )
        )
        fw.start()
        with pytest.raises(ValidationError, match="no handler registered"):
            fw.faults.schedule(FaultKind.INGESTER_CRASH, "ingester-0")
        fw.run_for(minutes(1))
        assert fw.faults.faults == []

    def test_no_log_loss_across_crash_and_replay(self):
        fw = MonitoringFramework(ring_config())
        fw.start()
        fw.faults.schedule(
            FaultKind.INGESTER_CRASH,
            "ingester-2",
            delay_ns=minutes(1),
            duration_ns=minutes(3),
        )
        gen = SyslogGenerator(sorted(fw.cluster.nodes)[:4], seed=1)
        for g in gen.generate(120, fw.clock.now_ns, seconds(3)):
            fw.publish_syslog(g.labels, g.timestamp_ns, g.line)
        fw.run_for(minutes(8))
        logs = fw.logql.query_logs(
            '{data_type="syslog"}', 0, fw.clock.now_ns + 1
        )
        assert sum(len(e) for _, e in logs) == 120


class TestDashboardAndTracing:
    def test_ring_dashboard_renders(self):
        fw = MonitoringFramework(ring_config())
        fw.run_for(minutes(3))
        out = fw.dashboards["ring"].render(
            fw.clock.now_ns - minutes(3), fw.clock.now_ns + 1, minutes(1)
        )
        assert "Ingesters up" in out
        assert "Entries per ingester" in out
        assert "Distributor quorum failures" in out

    def test_distributor_and_ingester_spans_traced(self):
        fw = MonitoringFramework(ring_config(tracing_sampling=1.0))
        fw.start()
        cab = sorted(fw.cluster.cabinets)[0]
        fw.faults.schedule(FaultKind.CABINET_LEAK, cab, delay_ns=minutes(1))
        fw.run_for(minutes(5))
        dist_spans = fw.traceql.find_spans('{ span.service = "distributor" }')
        assert dist_spans
        ing_spans = fw.traceql.find_spans('{ span.service = "ingester" }')
        assert ing_spans
        # The ingester spans are children within the distributor's trace
        # and name the replica they landed on.
        trace_ids = {s.trace_id for s in dist_spans}
        child = ing_spans[0]
        assert child.trace_id in trace_ids
        assert child.attributes["ingester"].startswith("ingester-")


class TestRetentionOverRing:
    def test_sweep_archives_each_entry_once(self):
        clock = SimClock(0)
        ring = RingLokiCluster(
            ingesters=4,
            replication_factor=3,
            policy=ChunkPolicy(target_size_bytes=64),
            tracer=off_tracer(),
        )
        lifecycle = Lifecycle(clock, ring, TimeSeriesStore(), Broker(clock), tracer=off_tracer())
        lifecycle.hot_window_ns = days(10)
        for i in range(6):
            ring.push(
                PushRequest.single(
                    {"app": "sim"}, [(hours(i), f"old-line-{i} " * 4)]
                )
            )
        ring.flush_all()
        clock.advance(days(30))
        moved = lifecycle.sweep()
        # RF=3 stores three copies, but the archive gets exactly one.
        assert moved == 6
        assert lifecycle.entries_archived == 6
        assert ring.select([label_matcher("app", "=", "sim")], 0, days(100)) == []
