"""Integration tests for the extension features: proactive anomaly
detection in the framework."""

import pytest

from repro.common.simclock import minutes
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.core.framework import FrameworkConfig, MonitoringFramework


@pytest.fixture
def fw():
    return MonitoringFramework(
        FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
            enable_proactive_detection=True,
        )
    )


class TestProactiveDetection:
    def test_anomaly_alert_reaches_slack(self, fw):
        fw.start()
        node = sorted(fw.cluster.nodes)[0]
        fw.faults.schedule(
            FaultKind.THERMAL_EXCURSION, node, delay_ns=minutes(20), delta_c=40.0
        )
        fw.run_for(minutes(60))
        anomaly_messages = [
            m for m in fw.slack.messages if "AnomalyDetected" in m.text
        ]
        assert anomaly_messages
        assert str(node) in anomaly_messages[0].text

    def test_quiet_cluster_no_anomalies(self):
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
                enable_proactive_detection=True,
            )
        )
        fw.run_for(minutes(40))
        assert not any("AnomalyDetected" in m.text for m in fw.slack.messages)

    def test_disabled_by_default(self):
        fw = MonitoringFramework(
            FrameworkConfig(cluster_spec=ClusterSpec(cabinets=1,
                                                     chassis_per_cabinet=1))
        )
        assert fw.proactive is None
