"""The ServiceNow platform facade and its Alertmanager adapter.

Implements the paper's §IV pipeline tail: Alertmanager notification →
SN Events → correlated SN Alerts → automated response actions (incident
creation for qualifying severities).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import NotFoundError
from repro.common.simclock import SimClock
from repro.alerting.events import AlertState
from repro.alerting.receivers import Notification
from repro.servicenow.alerts import SnAlert, SnAlertState
from repro.servicenow.cmdb import CMDB
from repro.servicenow.events import SnEvent, SnSeverity
from repro.servicenow.incidents import (
    Incident,
    IncidentState,
    PRIORITY_MATRIX,
    impact_urgency_for,
)


@dataclass(frozen=True)
class EventRule:
    """Automated-response rule: which alerts earn an incident."""

    max_severity: SnSeverity = SnSeverity.MINOR  # this severity or worse
    auto_assign_to: str | None = None


class ServiceNowPlatform:
    """Event Management + Incident Management over a CMDB."""

    def __init__(
        self,
        clock: SimClock,
        cmdb: CMDB | None = None,
        event_rule: EventRule | None = None,
    ) -> None:
        self._clock = clock
        self.cmdb = cmdb or CMDB()
        self._event_rule = event_rule or EventRule()
        self.events: list[SnEvent] = []
        self._alerts_by_key: dict[str, SnAlert] = {}
        self._alerts: list[SnAlert] = []
        self._incidents: dict[str, Incident] = {}
        self._alert_counter = 0
        self._incident_counter = 0

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def process_event(self, event: SnEvent) -> SnAlert:
        """Record an event, correlate it and apply automated responses."""
        self.events.append(event)
        alert = self._alerts_by_key.get(event.message_key)
        if alert is None:
            return self._new_alert(event)
        alert.absorb(event)
        self._apply_rules(alert)
        return alert

    def _new_alert(self, event: SnEvent) -> SnAlert:
        self._alert_counter += 1
        alert = SnAlert(
            number=f"ALERT{self._alert_counter:07d}",
            message_key=event.message_key,
            node=event.node,
            metric_name=event.metric_name,
            severity=event.severity,
            state=SnAlertState.CLOSED if event.is_clear else SnAlertState.OPEN,
            opened_at_ns=event.time_ns,
            closed_at_ns=event.time_ns if event.is_clear else None,
        )
        alert.events.append(event)
        self._alerts_by_key[event.message_key] = alert
        self._alerts.append(alert)
        if not event.is_clear:
            self._apply_rules(alert)
        return alert

    def _apply_rules(self, alert: SnAlert) -> None:
        if not alert.is_active or alert.incident_number is not None:
            return
        if alert.severity <= self._event_rule.max_severity:
            incident = self.open_incident(
                short_description=f"[{alert.severity.name}] {alert.metric_name} "
                f"on {alert.node}",
                ci_name=alert.node,
                severity=alert.severity,
                alert_number=alert.number,
            )
            alert.incident_number = incident.number
            if self._event_rule.auto_assign_to:
                incident.assign(self._event_rule.auto_assign_to)

    # ------------------------------------------------------------------
    # Incidents
    # ------------------------------------------------------------------
    def open_incident(
        self,
        short_description: str,
        ci_name: str,
        severity: SnSeverity,
        alert_number: str | None = None,
    ) -> Incident:
        if self.cmdb and len(self.cmdb) and not self.cmdb.exists(ci_name):
            # Unknown CIs are allowed but flagged, as real SN would log.
            pass
        impact, urgency = impact_urgency_for(severity)
        self._incident_counter += 1
        incident = Incident(
            number=f"INC{self._incident_counter:07d}",
            short_description=short_description,
            ci_name=ci_name,
            priority=PRIORITY_MATRIX[(impact, urgency)],
            opened_at_ns=self._clock.now_ns,
            alert_number=alert_number,
        )
        self._incidents[incident.number] = incident
        return incident

    def incident(self, number: str) -> Incident:
        try:
            return self._incidents[number]
        except KeyError:
            raise NotFoundError(f"no incident {number}") from None

    def incidents(self, state: IncidentState | None = None) -> list[Incident]:
        out = sorted(self._incidents.values(), key=lambda i: i.number)
        if state is not None:
            out = [i for i in out if i.state is state]
        return out

    def alerts(self, active_only: bool = False) -> list[SnAlert]:
        out = list(self._alerts)
        if active_only:
            out = [a for a in out if a.is_active]
        return out

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def mttr_ns(self) -> float | None:
        """Mean time to resolve over resolved incidents; None if none."""
        durations = [
            d
            for i in self._incidents.values()
            if (d := i.time_to_resolve_ns()) is not None
        ]
        if not durations:
            return None
        return sum(durations) / len(durations)

    def funnel(self) -> dict[str, int]:
        """Events → alerts → incidents counts (bench C7)."""
        return {
            "events": len(self.events),
            "alerts": len(self._alerts),
            "incidents": len(self._incidents),
        }


class ServiceNowReceiver:
    """Alertmanager receiver translating notifications into SN Events.

    The correlation message key is the alert's full label set, so the same
    failing series maps onto the same SN Alert across repeats — the
    dedup behaviour event management is deployed for.
    """

    #: Labels consulted, in order, to find the affected CI.  ``cluster``
    #: is the last resort: service-scoped alerts (e.g. the SLO plane's
    #: burn-rate pages) have no component CI, so the incident lands on
    #: the cluster's own CMDB entry rather than "unknown".
    CI_LABELS = (
        "xname", "Context", "hostname", "cdu", "pdu", "fs", "cluster",
    )
    #: The event source every SN Event names.
    SOURCE = "alertmanager"
    #: The receiver name Alertmanager routes point at.
    name = "servicenow"

    def __init__(self, platform: ServiceNowPlatform) -> None:
        self._platform = platform

    def notify(self, notification: Notification) -> None:
        for alert in notification.alerts:
            severity = (
                SnSeverity.CLEAR
                if alert.state is AlertState.RESOLVED
                else SnSeverity.from_label(alert.severity)
            )
            node = next(
                (
                    value
                    for name in self.CI_LABELS
                    if (value := alert.labels.get(name, ""))
                ),
                "unknown",
            )
            description = alert.annotations.get("summary", "") or alert.name
            key_parts = ",".join(
                f"{k}={v}" for k, v in alert.labels.items_tuple()
            )
            event = SnEvent(
                source=self.SOURCE,
                node=node,
                metric_name=alert.name,
                severity=severity,
                message_key=key_parts,
                description=description,
                time_ns=notification.timestamp_ns,
                additional_info=dict(alert.annotations),
            )
            self._platform.process_event(event)
