"""Tests for the assembled framework and the k3s consumers."""

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import minutes, seconds
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.remediation import AutoRemediator
from repro.servicenow.incidents import IncidentState
from repro.workloads.loggen import SyslogGenerator


@pytest.fixture(scope="module")
def small_config():
    return FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2)
    )


@pytest.fixture
def fw(small_config):
    return MonitoringFramework(small_config)


class TestConfig:
    def test_bad_interval_rejected(self):
        with pytest.raises(ValidationError):
            FrameworkConfig(objstore_flush_interval_ns=0)


class TestPipeline:
    def test_sensor_metrics_flow_to_tsdb(self, fw):
        fw.run_for(minutes(3))
        samples = fw.promql.query_instant(
            "avg(shasta_temperature_celsius)", fw.clock.now_ns
        )
        assert len(samples) == 1
        assert 20 < samples[0].value < 50

    def test_exporter_metrics_scraped(self, fw):
        fw.run_for(minutes(2))
        up = fw.promql.query_instant("sum(node_up)", fw.clock.now_ns)
        assert up[0].value == float(len(fw.cluster.nodes))

    def test_gpfs_metrics_flow(self, fw):
        fw.run_for(minutes(2))
        healthy = fw.promql.query_instant("gpfs_healthy", fw.clock.now_ns)
        assert len(healthy) == 2  # scratch + community

    def test_syslog_roundtrip(self, fw):
        fw.start()
        gen = SyslogGenerator(sorted(fw.cluster.nodes)[:4], seed=0)
        for g in gen.generate(20, fw.clock.now_ns, seconds(1)):
            fw.publish_syslog(g.labels, g.timestamp_ns, g.line)
        fw.run_for(minutes(1))
        logs = fw.logql.query_logs(
            '{data_type="syslog"}', 0, fw.clock.now_ns + minutes(1)
        )
        total = sum(len(entries) for _, entries in logs)
        assert total == 20

    def test_container_log_roundtrip(self, fw):
        fw.start()
        fw.publish_container_log(
            {"app": "telemetry-api", "data_type": "container_log"},
            fw.clock.now_ns,
            '{"level":"info","msg":"ok"}',
        )
        fw.run_for(minutes(1))
        logs = fw.logql.query_logs(
            '{data_type="container_log"} | json | level="info"',
            0,
            fw.clock.now_ns + 1,
        )
        assert logs

    def test_health_summary_keys(self, fw):
        fw.run_for(minutes(1))
        summary = fw.health_summary()
        assert summary["messages_ingested"] > 0
        assert set(summary) >= {
            "log_streams", "metric_series", "alert_events", "notifications",
        }

    def test_telemetry_api_balances_requests(self, fw):
        fw.run_for(minutes(2))
        counts = fw.telemetry_api.server_request_counts()
        assert len(counts) == 2
        assert abs(counts[0] - counts[1]) <= 1


class TestAlertingEndToEnd:
    def test_node_down_alert_and_incident(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        node = sorted(fw.cluster.nodes)[0]
        fw.faults.schedule(FaultKind.NODE_DOWN, node, delay_ns=minutes(1))
        fw.run_for(minutes(10))
        assert any("NodeDown" in m.text for m in fw.slack.messages)
        incidents = [
            i for i in fw.servicenow.incidents() if str(node) in i.short_description
        ]
        assert incidents

    def test_gpfs_degraded_alert(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        fw.gpfs.set_degraded("scratch", True, fraction=0.5)
        fw.run_for(minutes(10))
        assert any("GpfsDegraded" in m.text for m in fw.slack.messages)

    def test_no_faults_no_critical_alerts(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.run_for(minutes(10))
        assert not any("CabinetLeak" in m.text for m in fw.slack.messages)
        assert not any("SwitchOffline" in m.text for m in fw.slack.messages)
        assert fw.servicenow.incidents() == []

    def test_alert_resolves_after_repair(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        sw = sorted(fw.cluster.switches)[0]
        fw.faults.schedule(
            FaultKind.SWITCH_OFFLINE, sw, delay_ns=minutes(1), duration_ns=minutes(5)
        )
        fw.run_for(minutes(25))
        assert any("RESOLVED" in m.text for m in fw.slack.messages)
        assert fw.ruler.firing_series() == []


class TestAlertEventMirror:
    """ServiceNow alerts mirrored into OMNI's event archive once a minute."""

    @staticmethod
    def sn_event(fw, key, severity):
        from repro.servicenow.events import SnEvent, SnSeverity

        return SnEvent(
            source="alertmanager",
            node="perlmutter",
            metric_name=key,
            severity=SnSeverity[severity],
            message_key=key,
            description=key,
            time_ns=fw.clock.now_ns,
        )

    def test_second_alert_on_one_ci_opening_after_the_first_closed(self, fw):
        from repro.omni.eventstore import Term

        fw.start()
        fw.servicenow.process_event(self.sn_event(fw, "novel-1", "CRITICAL"))
        fw.run_for(minutes(2))
        fw.servicenow.process_event(self.sn_event(fw, "novel-1", "CLEAR"))
        fw.run_for(minutes(2))  # first alert mirrored closed
        fw.servicenow.process_event(self.sn_event(fw, "novel-2", "CRITICAL"))
        second_opened = fw.clock.now_ns
        # Used to raise "event cannot end before it starts": on the pass
        # after the second alert was mirrored, the long-closed first one
        # was visited again and closed the second's open event — at the
        # first's close time.
        fw.run_for(minutes(5))
        docs = fw.eventstore.search(Term("category", "sn_alert"))
        assert [(d.fields["alert_number"], d.open) for d in docs] == [
            ("ALERT0000001", False),
            ("ALERT0000002", True),
        ]
        assert docs[0].end_ns < second_opened == docs[1].start_ns
        fw.servicenow.process_event(self.sn_event(fw, "novel-2", "CLEAR"))
        fw.run_for(minutes(2))
        assert fw.eventstore.open_count() == 0
        assert fw.eventstore.doc_count() == 2

    def test_unchanged_alerts_are_not_mirrored_again(self, fw, monkeypatch):
        from repro.core import framework as framework_module

        mirrored = []
        real = framework_module.record_from_alert
        monkeypatch.setattr(
            framework_module,
            "record_from_alert",
            lambda store, alert, now: mirrored.append(alert.number)
            or real(store, alert, now),
        )
        fw.start()
        fw.servicenow.process_event(self.sn_event(fw, "k", "MAJOR"))
        fw.run_for(minutes(5))
        assert mirrored == ["ALERT0000001"]
        fw.servicenow.process_event(self.sn_event(fw, "k", "CLEAR"))
        fw.run_for(minutes(5))
        fw.servicenow.process_event(self.sn_event(fw, "k", "MAJOR"))  # reopened
        fw.run_for(minutes(5))
        assert mirrored == ["ALERT0000001"] * 3


class TestRemediation:
    def test_auto_remediation_resolves_incident(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        remediator = AutoRemediator(fw.clock, fw.servicenow)
        repaired = []

        def playbook(incident):
            for fault in fw.faults.active_faults():
                fw.faults.repair(fault)
                repaired.append(fault)
            return True

        remediator.register_playbook(
            "SwitchOffline", playbook, duration_ns=minutes(2)
        )
        fw.clock.every(minutes(1), remediator.poll)
        sw = sorted(fw.cluster.switches)[0]
        fw.faults.schedule(FaultKind.SWITCH_OFFLINE, sw, delay_ns=minutes(1))
        fw.run_for(minutes(20))
        assert repaired
        resolved = fw.servicenow.incidents(IncidentState.RESOLVED)
        assert resolved
        assert resolved[0].assigned_to == "auto-remediation"
        assert remediator.success_rate() == 1.0
        assert fw.servicenow.mttr_ns() is not None

    def test_unmatched_incident_untouched(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        remediator = AutoRemediator(fw.clock, fw.servicenow)
        remediator.register_playbook("SomethingElse", lambda i: True)
        fw.clock.every(minutes(1), remediator.poll)
        node = sorted(fw.cluster.nodes)[0]
        fw.faults.schedule(FaultKind.NODE_DOWN, node, delay_ns=minutes(1))
        fw.run_for(minutes(15))
        assert fw.servicenow.incidents(IncidentState.NEW)
        assert remediator.records == []

    def test_playbook_needs_pattern(self, small_config):
        fw = MonitoringFramework(small_config)
        remediator = AutoRemediator(fw.clock, fw.servicenow)
        with pytest.raises(ValidationError):
            remediator.register_playbook("", lambda i: True)
