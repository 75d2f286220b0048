"""Failure-injection tests on the monitoring pipeline itself.

The stack monitors its own plumbing (kafka-exporter, blackbox-exporter,
`up` metrics), so breaking a pipeline component must itself raise an
alert — "monitoring the monitoring".
"""

import pytest

from repro.common.simclock import minutes
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.shasta.hms import TOPIC_SYSLOG


@pytest.fixture
def fw():
    return MonitoringFramework(
        FrameworkConfig(cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1))
    )


class TestStalledConsumer:
    def test_growing_lag_fires_kafka_lag_alert(self, fw):
        fw.start()
        # Let the consumer group register itself, then stall the pod.
        fw.run_for(minutes(1))
        fw.syslog_consumer.pump = lambda *a, **k: 0  # type: ignore[assignment]
        # Flood the topic past the 10k-lag rule threshold.
        now = fw.clock.now_ns
        for i in range(12_000):
            fw.publish_syslog(
                {"data_type": "syslog", "hostname": "x1c0s0b0n0"},
                now + i,
                f"line {i}",
            )
        fw.run_for(minutes(15))
        assert any("KafkaConsumerLag" in m.text for m in fw.slack.messages)

    def test_healthy_consumer_no_lag_alert(self, fw):
        fw.start()
        now = fw.clock.now_ns
        for i in range(2_000):
            fw.publish_syslog(
                {"data_type": "syslog", "hostname": "x1c0s0b0n0"},
                now + i,
                f"line {i}",
            )
        fw.run_for(minutes(15))
        assert not any("KafkaConsumerLag" in m.text for m in fw.slack.messages)


class TestBrokenExporter:
    def test_scrape_failure_records_up_zero(self, fw):
        fw.start()

        def boom():
            raise RuntimeError("exporter crashed")

        fw.node_exporter.scrape = boom  # type: ignore[assignment]
        fw.run_for(minutes(3))
        samples = fw.promql.query_instant(
            'up{job="node"} == 0', fw.clock.now_ns
        )
        assert len(samples) == 1
        assert fw.vmagent.scrape_errors > 0


class TestMalformedTelemetry:
    def test_bad_records_counted_not_fatal(self, fw):
        fw.start()
        fw.broker.produce(TOPIC_SYSLOG, "not json at all")
        fw.broker.produce(TOPIC_SYSLOG, '{"labels": {"a": "b"}}')  # missing keys
        fw.run_for(minutes(1))
        if fw.config.enable_reliable_delivery:
            # records_failed counts *attempts* here: each poison record
            # is retried MAX_DELIVERY_FAILURES times, then quarantined.
            assert fw.syslog_consumer.records_quarantined == 2
        else:
            assert fw.syslog_consumer.records_failed == 2
        # The pipeline keeps flowing afterwards.
        fw.publish_syslog(
            {"data_type": "syslog", "hostname": "x1c0s0b0n0"},
            fw.clock.now_ns,
            "good line",
        )
        fw.run_for(minutes(1))
        results = fw.logql.query_logs(
            '{data_type="syslog"}', 0, fw.clock.now_ns + 1
        )
        assert sum(len(e) for _, e in results) == 1


class TestEventMirrorAndServiceMap:
    def test_alert_lands_in_eventstore_and_map(self, fw):
        fw.start()
        sw = sorted(fw.cluster.switches)[0]
        fw.faults.schedule(FaultKind.SWITCH_OFFLINE, sw, delay_ns=minutes(1))
        # Inspect while the alert is active: the FM monitor is
        # edge-triggered, so the count_over_time[5m] rule auto-resolves
        # once the single event ages out of the window.
        fw.run_for(minutes(5))
        # OMNI's event archive has the open SN alert mirrored in.
        assert fw.eventstore.open_count() >= 1
        open_event = fw.eventstore.open_event("sn_alert", str(sw))
        assert open_event is not None
        assert "SwitchOffline" in open_event.text
        # The service map shows the degraded switch up to the service root.
        rendered = fw.service_map()
        assert "[CRITICAL] perlmutter" in rendered
        assert str(sw) in rendered

    def test_event_closes_after_recovery(self, fw):
        fw.start()
        sw = sorted(fw.cluster.switches)[0]
        fw.faults.schedule(
            FaultKind.SWITCH_OFFLINE, sw, delay_ns=minutes(1),
            duration_ns=minutes(5),
        )
        fw.run_for(minutes(25))
        assert fw.eventstore.open_event("sn_alert", str(sw)) is None
        assert fw.eventstore.doc_count() >= 1
        assert "OK perlmutter" in fw.service_map()
