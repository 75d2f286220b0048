"""End-to-end acceptance for repro.resilience: zero-loss alert delivery.

The scenario the PR exists for: a ServiceNow outage spanning multiple
evaluation cycles plus one poison record in the telemetry stream.  Every
fired alert group must still produce exactly one ServiceNow incident —
no losses, no duplicates — and the poison record must sit quarantined in
the topic's dead-letter queue instead of wedging its partition.
"""

import pytest

from repro.common.simclock import minutes, seconds
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.core.consumers import MAX_DELIVERY_FAILURES
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.shasta.hms import TOPIC_SENSOR_TELEMETRY


def reliable_framework(**overrides) -> MonitoringFramework:
    cfg = FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
        enable_reliable_delivery=True,
        **overrides,
    )
    return MonitoringFramework(cfg)


@pytest.fixture
def fw():
    return reliable_framework()


class TestZeroLossAcceptance:
    def test_outage_plus_poison_record(self, fw):
        fw.start()
        # One poison record in the sensor stream.
        fw.broker.produce(TOPIC_SENSOR_TELEMETRY, '{"not": "a sensor sample"}')
        # ServiceNow goes dark for 20 minutes, spanning many vmalert
        # cycles, group flushes and retry attempts.
        fw.faults.schedule(
            FaultKind.RECEIVER_OUTAGE, "servicenow",
            delay_ns=minutes(1), duration_ns=minutes(20),
        )
        # A node dies during the outage: NodeDown (critical) must reach
        # ServiceNow anyway.
        node = sorted(fw.cluster.nodes)[0]
        fw.faults.schedule(FaultKind.NODE_DOWN, node, delay_ns=minutes(2))
        fw.run_for(minutes(50))

        # Zero loss: everything journaled for ServiceNow was delivered.
        stats = fw.journal.stats("servicenow")
        assert stats["enqueued"] > 0
        assert stats["pending"] == 0
        assert stats["failed"] == 0
        assert stats["delivered"] == stats["enqueued"]
        # Delivery took real retries, not a lucky first attempt.
        retrying = fw.delivery_receivers["servicenow"]
        assert retrying.retries_scheduled > 0
        assert fw.flaky_receivers["servicenow"].failures > 0

        # Ground truth from the injector matches the journal.
        [outage] = [
            g
            for g in fw.faults.delivery_ground_truth()
            if g["kind"] == "receiver_outage"
        ]
        assert fw.journal.delivered_count("servicenow") >= int(
            outage["expected_deliveries"]
        )

        # Exactly one incident per fired alert group: NodeDown opened
        # one, despite the many failed and retried dispatches.
        node_down = [
            i
            for i in fw.servicenow.incidents()
            if "NodeDown" in i.short_description
        ]
        assert len(node_down) == 1

        # The poison record quarantined after MAX_DELIVERY_FAILURES
        # attempts, with provenance headers, and the stream kept flowing.
        assert fw.sensor_consumer.records_quarantined == 1
        assert fw.broker.dlq_depth(TOPIC_SENSOR_TELEMETRY) == 1
        [dead] = fw.broker.poll(
            "inspector", fw.broker.dlq_topic(TOPIC_SENSOR_TELEMETRY), 10
        )
        assert dead.header("dlq-source-topic") == TOPIC_SENSOR_TELEMETRY
        assert dead.header("dlq-failures") == str(MAX_DELIVERY_FAILURES)
        assert fw.sensor_consumer.records_processed > 0
        assert fw.sensor_consumer.lag() == 0

    def test_breaker_cycles_during_outage(self, fw):
        fw.start()
        fw.faults.schedule(
            FaultKind.RECEIVER_OUTAGE, "servicenow",
            delay_ns=minutes(1), duration_ns=minutes(20),
        )
        node = sorted(fw.cluster.nodes)[0]
        fw.faults.schedule(FaultKind.NODE_DOWN, node, delay_ns=minutes(2))
        fw.run_for(minutes(50))
        breaker = fw.delivery_receivers["servicenow"].breaker
        assert breaker.times_opened > 0
        # Recovered: the circuit is closed again at the end.
        from repro.resilience.circuit import CircuitState

        assert breaker.state is CircuitState.CLOSED


class TestMonitoringTheDeliveryPlane:
    def test_notification_failures_rule_fires(self, fw):
        fw.start()
        fw.faults.schedule(
            FaultKind.RECEIVER_OUTAGE, "servicenow",
            delay_ns=minutes(1), duration_ns=minutes(20),
        )
        node = sorted(fw.cluster.nodes)[0]
        fw.faults.schedule(FaultKind.NODE_DOWN, node, delay_ns=minutes(2))
        fw.run_for(minutes(30))
        # The delivery plane watched itself: sustained pending depth
        # fired the NotificationFailures rule into Slack.
        assert any(
            "NotificationFailures" in m.text for m in fw.slack.messages
        )

    def test_delivery_exporter_scrapes(self, fw):
        fw.start()
        fw.broker.produce(TOPIC_SENSOR_TELEMETRY, "garbage")
        fw.run_for(minutes(5))
        text = fw.delivery_exporter.scrape().text()
        assert 'alert_delivery_pending{receiver="servicenow"}' in text
        assert 'alert_delivery_breaker_state{receiver="slack"}' in text
        assert (
            'kafka_dlq_records{topic="%s"}' % TOPIC_SENSOR_TELEMETRY in text
        )
        # vmagent scraped it into the TSDB as well.
        samples = fw.promql.query_instant(
            "alert_delivery_pending", fw.clock.now_ns
        )
        assert len(samples) == 2  # slack + servicenow

    def test_delivery_dashboard_renders(self, fw):
        fw.start()
        fw.run_for(minutes(5))
        now = fw.clock.now_ns
        rendered = fw.dashboards["delivery"].render(
            now - minutes(10), now, minutes(1)
        )
        assert "Pending notifications" in rendered
        assert "Delivery retries" in rendered

    def test_health_summary_gains_delivery_keys(self, fw):
        fw.start()
        fw.run_for(minutes(2))
        summary = fw.health_summary()
        for key in (
            "deliveries_pending",
            "deliveries_delivered",
            "deliveries_dead_lettered",
            "records_dead_lettered",
            "notifications_failed",
        ):
            assert key in summary


class TestSlowConsumerFault:
    def test_throttle_builds_then_drains_lag(self, fw):
        fw.start()
        fw.run_for(minutes(1))
        fault = fw.faults.schedule(
            FaultKind.SLOW_CONSUMER, "syslog",
            delay_ns=0, duration_ns=minutes(10), max_per_pump=5,
        )
        now = fw.clock.now_ns
        for i in range(2_000):
            fw.publish_syslog(
                {"data_type": "syslog", "hostname": "x1c0s0b0n0"},
                now + i,
                f"line {i}",
            )
        fw.run_for(minutes(5))
        assert fw.syslog_consumer.lag() > 0  # throttled pod fell behind
        fw.run_for(minutes(30))
        assert fw.syslog_consumer.lag() == 0  # recovered after the fault
        assert int(fault.detail["lag_at_end"]) > 0
        [truth] = [
            g
            for g in fw.faults.delivery_ground_truth()
            if g["kind"] == "slow_consumer"
        ]
        assert truth["target"] == "syslog"

    def test_unknown_target_rejected(self, fw):
        from repro.common.errors import ValidationError

        fw.start()
        fw.faults.schedule(FaultKind.SLOW_CONSUMER, "nope", delay_ns=0)
        with pytest.raises(ValidationError):
            fw.run_for(seconds(1))


class TestModeParity:
    def test_reliable_mode_matches_legacy_when_healthy(self):
        """With no faults, both delivery modes produce identical pipeline
        outcomes — the reliability machinery is invisible until needed."""
        legacy = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
                # Pin explicitly: the REPRO_RELIABLE_DELIVERY env var (the
                # CI reliable-delivery leg) flips the config default.
                enable_reliable_delivery=False,
            )
        )
        reliable = reliable_framework()
        legacy.start()
        reliable.start()
        legacy.run_for(minutes(10))
        reliable.run_for(minutes(10))
        a = legacy.health_summary()
        b = reliable.health_summary()
        for key in ("messages_ingested", "notifications", "slack_messages"):
            assert a[key] == b[key], key
        # Reliable mode adds the delivery plane's own self-monitoring
        # series on top of the legacy set, nothing else changes.
        assert b["metric_series"] > a["metric_series"]
        assert b["deliveries_pending"] == 0
        assert b["notifications_failed"] == 0
