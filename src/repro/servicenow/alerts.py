"""SN Alerts: correlated groups of SN Events.

Events sharing a ``message_key`` collapse into one alert whose severity
tracks the worst non-clear event; a CLEAR event closes the alert (and
reopens it if the condition returns).  This is the second noise-reduction
stage after Alertmanager grouping — bench C7 measures the funnel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.servicenow.events import SnEvent, SnSeverity


class SnAlertState(enum.Enum):
    OPEN = "open"
    REOPENED = "reopened"
    CLOSED = "closed"


@dataclass
class SnAlert:
    """One row of the ``em_alert`` table."""

    number: str  # e.g. "ALERT0000042"
    message_key: str
    node: str
    metric_name: str
    severity: SnSeverity
    state: SnAlertState
    opened_at_ns: int
    closed_at_ns: int | None = None
    events: list[SnEvent] = field(default_factory=list)
    incident_number: str | None = None

    def absorb(self, event: SnEvent) -> None:
        """Fold one correlated event into this alert."""
        self.events.append(event)
        if event.is_clear:
            if self.state is not SnAlertState.CLOSED:
                self.state = SnAlertState.CLOSED
                self.closed_at_ns = event.time_ns
            return
        if self.state is SnAlertState.CLOSED:
            self.state = SnAlertState.REOPENED
            self.closed_at_ns = None
        # Severity escalates to the worst (numerically lowest non-clear).
        if self.severity is SnSeverity.CLEAR or event.severity < self.severity:
            self.severity = event.severity

    @property
    def is_active(self) -> bool:
        return self.state is not SnAlertState.CLOSED
