"""Tests for the ServiceNow mock: CMDB, events, alerts, incidents, platform."""

import pytest

from repro.common.errors import NotFoundError, StateError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, minutes
from repro.alerting.events import AlertEvent, AlertState
from repro.alerting.receivers import Notification
from repro.cluster.topology import Cluster, ClusterSpec
from repro.servicenow.alerts import SnAlertState
from repro.servicenow.cmdb import CMDB, build_from_cluster
from repro.servicenow.events import SnEvent, SnSeverity
from repro.servicenow.incidents import (
    Impact,
    Incident,
    IncidentState,
    Priority,
    PRIORITY_MATRIX,
    Urgency,
    impact_urgency_for,
)
from repro.servicenow.platform import (
    EventRule,
    ServiceNowPlatform,
    ServiceNowReceiver,
)


def make_event(key="k1", severity=SnSeverity.CRITICAL, node="x1", t=0):
    return SnEvent(
        source="alertmanager",
        node=node,
        metric_name="SwitchOffline",
        severity=severity,
        message_key=key,
        description="switch down",
        time_ns=t,
    )


class TestCMDB:
    def test_add_and_get(self):
        cmdb = CMDB()
        ci = cmdb.add("perlmutter", "cmdb_ci_service")
        assert cmdb.get("perlmutter") == ci
        assert cmdb.exists("perlmutter")

    def test_duplicate_rejected(self):
        cmdb = CMDB()
        cmdb.add("a", "c")
        with pytest.raises(ValidationError):
            cmdb.add("a", "c")

    def test_missing_parent_rejected(self):
        with pytest.raises(NotFoundError):
            CMDB().add("child", "c", parent="ghost")

    def test_descendants(self):
        cmdb = CMDB()
        cmdb.add("svc", "service")
        cmdb.add("cab", "cabinet", parent="svc")
        cmdb.add("ch", "chassis", parent="cab")
        names = [ci.name for ci in cmdb.descendants_of("svc")]
        assert names == ["cab", "ch"]

    def test_build_from_cluster(self):
        cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=2))
        cmdb = build_from_cluster(cluster)
        assert len(cmdb) == (
            1 + 1 + 2 + len(cluster.nodes) + len(cluster.switches)
        )
        assert len(cmdb.by_class("cmdb_ci_computer")) == len(cluster.nodes)
        node = sorted(cluster.nodes)[0]
        assert cmdb.exists(str(node))
        # Impact analysis: a chassis contains its nodes and switches.
        ch = sorted(cluster.chassis)[0]
        blast = {ci.name for ci in cmdb.descendants_of(str(ch))}
        assert str(node) in blast


class TestSeverityMapping:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("critical", SnSeverity.CRITICAL),
            ("warning", SnSeverity.WARNING),
            ("info", SnSeverity.INFO),
            ("resolved", SnSeverity.CLEAR),
            ("something-else", SnSeverity.WARNING),
        ],
    )
    def test_from_label(self, label, expected):
        assert SnSeverity.from_label(label) is expected


class TestPriorityMatrix:
    def test_full_matrix_defined(self):
        assert len(PRIORITY_MATRIX) == 9

    def test_critical_maps_to_p1(self):
        impact, urgency = impact_urgency_for(SnSeverity.CRITICAL)
        assert PRIORITY_MATRIX[(impact, urgency)] is Priority.CRITICAL

    def test_info_maps_to_planning(self):
        impact, urgency = impact_urgency_for(SnSeverity.INFO)
        assert PRIORITY_MATRIX[(impact, urgency)] is Priority.PLANNING

    def test_matrix_monotone_in_impact(self):
        for urgency in Urgency:
            p_high = PRIORITY_MATRIX[(Impact.HIGH, urgency)]
            p_low = PRIORITY_MATRIX[(Impact.LOW, urgency)]
            assert p_high <= p_low  # P1 < P5 numerically


class TestIncidentLifecycle:
    def make(self):
        return Incident(
            number="INC1",
            short_description="x",
            ci_name="x1",
            priority=Priority.CRITICAL,
            opened_at_ns=minutes(10),
        )

    def test_assign_moves_to_in_progress(self):
        inc = self.make()
        inc.assign("ops")
        assert inc.state is IncidentState.IN_PROGRESS

    def test_hold_resume(self):
        inc = self.make()
        inc.assign("ops")
        inc.hold("waiting for parts")
        assert inc.state is IncidentState.ON_HOLD
        inc.resume()
        assert inc.state is IncidentState.IN_PROGRESS

    def test_resolve_and_close(self):
        inc = self.make()
        inc.resolve(minutes(40), note="fixed")
        assert inc.time_to_resolve_ns() == minutes(30)
        inc.close(minutes(50))
        assert inc.state is IncidentState.CLOSED

    def test_resolve_before_open_rejected(self):
        with pytest.raises(ValidationError):
            self.make().resolve(minutes(5))

    def test_double_resolve_rejected(self):
        inc = self.make()
        inc.resolve(minutes(20))
        with pytest.raises(StateError):
            inc.resolve(minutes(30))

    def test_close_requires_resolved(self):
        with pytest.raises(StateError):
            self.make().close(minutes(20))

    def test_assign_after_resolve_rejected(self):
        inc = self.make()
        inc.resolve(minutes(20))
        with pytest.raises(StateError):
            inc.assign("ops")


class TestPlatformCorrelation:
    @pytest.fixture
    def platform(self):
        return ServiceNowPlatform(SimClock(0))

    def test_same_key_correlates_to_one_alert(self, platform):
        a1 = platform.process_event(make_event(t=0))
        a2 = platform.process_event(make_event(t=1))
        assert a1 is a2
        assert len(a1.events) == 2
        assert platform.funnel() == {"events": 2, "alerts": 1, "incidents": 1}

    def test_different_keys_distinct_alerts(self, platform):
        platform.process_event(make_event(key="a"))
        platform.process_event(make_event(key="b"))
        assert len(platform.alerts()) == 2

    def test_clear_event_closes_alert(self, platform):
        platform.process_event(make_event(t=0))
        alert = platform.process_event(make_event(severity=SnSeverity.CLEAR, t=5))
        assert alert.state is SnAlertState.CLOSED
        assert alert.closed_at_ns == 5
        assert platform.alerts(active_only=True) == []

    def test_reopen_on_recurrence(self, platform):
        platform.process_event(make_event(t=0))
        platform.process_event(make_event(severity=SnSeverity.CLEAR, t=5))
        alert = platform.process_event(make_event(t=10))
        assert alert.state is SnAlertState.REOPENED

    def test_severity_escalates_not_deescalates(self, platform):
        alert = platform.process_event(make_event(severity=SnSeverity.WARNING))
        platform.process_event(make_event(severity=SnSeverity.CRITICAL, t=1))
        assert alert.severity is SnSeverity.CRITICAL
        platform.process_event(make_event(severity=SnSeverity.WARNING, t=2))
        assert alert.severity is SnSeverity.CRITICAL

    def test_incident_created_for_qualifying_severity(self, platform):
        alert = platform.process_event(make_event(severity=SnSeverity.CRITICAL))
        assert alert.incident_number is not None
        incident = platform.incident(alert.incident_number)
        assert incident.priority is Priority.CRITICAL
        assert incident.alert_number == alert.number

    def test_no_incident_below_threshold(self, platform):
        alert = platform.process_event(make_event(severity=SnSeverity.WARNING))
        assert alert.incident_number is None

    def test_event_rule_auto_assign(self):
        platform = ServiceNowPlatform(
            SimClock(0), event_rule=EventRule(auto_assign_to="oncall")
        )
        alert = platform.process_event(make_event())
        incident = platform.incident(alert.incident_number)
        assert incident.assigned_to == "oncall"
        assert incident.state is IncidentState.IN_PROGRESS

    def test_mttr(self, platform):
        clock = platform._clock
        a = platform.process_event(make_event(key="a"))
        clock.advance(minutes(30))
        platform.incident(a.incident_number).resolve(clock.now_ns)
        assert platform.mttr_ns() == minutes(30)

    def test_mttr_none_when_unresolved(self, platform):
        platform.process_event(make_event())
        assert platform.mttr_ns() is None

    def test_unknown_incident_raises(self, platform):
        with pytest.raises(NotFoundError):
            platform.incident("INC9999999")


class TestReceiver:
    def test_notification_becomes_events(self):
        clock = SimClock(0)
        platform = ServiceNowPlatform(clock)
        recv = ServiceNowReceiver(platform)
        alert_event = AlertEvent(
            labels=LabelSet(
                {"alertname": "SwitchOffline", "xname": "x1002c1r7b0",
                 "severity": "critical"}
            ),
            annotations={"summary": "switch down"},
            state=AlertState.FIRING,
            value=1.0,
            started_at_ns=0,
            fired_at_ns=0,
        )
        recv.notify(
            Notification(
                receiver="servicenow",
                group_key=LabelSet({"alertname": "SwitchOffline"}),
                alerts=(alert_event,),
                timestamp_ns=minutes(1),
            )
        )
        assert platform.funnel() == {"events": 1, "alerts": 1, "incidents": 1}
        (sn_alert,) = platform.alerts()
        assert sn_alert.node == "x1002c1r7b0"
        assert sn_alert.severity is SnSeverity.CRITICAL

    def test_resolved_notification_clears(self):
        clock = SimClock(0)
        platform = ServiceNowPlatform(clock)
        recv = ServiceNowReceiver(platform)
        labels = LabelSet(
            {"alertname": "A", "xname": "x1", "severity": "critical"}
        )
        firing = AlertEvent(labels, {}, AlertState.FIRING, 1.0, 0, 0)
        resolved = AlertEvent(labels, {}, AlertState.RESOLVED, 0.0, 0, 1)
        group = LabelSet({"alertname": "A"})
        recv.notify(Notification("servicenow", group, (firing,), 0))
        recv.notify(Notification("servicenow", group, (resolved,), minutes(1)))
        (alert,) = platform.alerts()
        assert alert.state is SnAlertState.CLOSED
