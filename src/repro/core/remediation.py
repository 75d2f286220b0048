"""Automated remediation workflows.

The paper's ambition (§I, §V): "alert remediation and real-time automated
root cause analysis ... aids in reducing the number of incidents
requiring troubleshooting from operational staff".  The remediator
watches ServiceNow for new incidents, dispatches the registered playbook
for the incident's category, and resolves the ticket once the playbook
reports success — recording the timeline that the MTTR study consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock, minutes
from repro.servicenow.incidents import Incident, IncidentState
from repro.servicenow.platform import ServiceNowPlatform

#: A playbook takes the incident and returns True on successful remediation.
Playbook = Callable[[Incident], bool]

#: How long a playbook registered without a duration "takes".
DEFAULT_DURATION_NS = minutes(10)
#: Who a dispatched incident is assigned to.
OPERATOR = "auto-remediation"


@dataclass
class RemediationRecord:
    """Timeline of one automated remediation."""

    incident_number: str
    detected_ns: int  # incident opened
    started_ns: int  # playbook dispatched
    finished_ns: int | None = None
    succeeded: bool | None = None


@dataclass
class _PlaybookEntry:
    match_substring: str
    playbook: Playbook
    duration_ns: int


class AutoRemediator:
    """Polls ServiceNow for fresh incidents and runs playbooks."""

    def __init__(self, clock: SimClock, platform: ServiceNowPlatform) -> None:
        self._clock = clock
        self._platform = platform
        self._playbooks: list[_PlaybookEntry] = []
        self._seen: set[str] = set()
        self.records: list[RemediationRecord] = []

    def register_playbook(
        self,
        match_substring: str,
        playbook: Playbook,
        duration_ns: int | None = None,
    ) -> None:
        """Run ``playbook`` for incidents whose description contains the
        substring; the playbook "takes" ``duration_ns`` of simulated time."""
        if not match_substring:
            raise ValidationError("playbook needs a match substring")
        self._playbooks.append(
            _PlaybookEntry(
                match_substring,
                playbook,
                duration_ns if duration_ns is not None else DEFAULT_DURATION_NS,
            )
        )

    def poll(self) -> int:
        """Scan for unseen incidents; dispatch playbooks. Returns dispatched."""
        dispatched = 0
        for incident in self._platform.incidents(IncidentState.NEW):
            if incident.number in self._seen:
                continue
            entry = self._match(incident)
            if entry is None:
                continue
            self._seen.add(incident.number)
            incident.assign(OPERATOR)
            record = RemediationRecord(
                incident_number=incident.number,
                detected_ns=incident.opened_at_ns,
                started_ns=self._clock.now_ns,
            )
            self.records.append(record)
            self._clock.call_later(
                entry.duration_ns,
                lambda i=incident, e=entry, r=record: self._finish(i, e, r),
            )
            dispatched += 1
        return dispatched

    def _match(self, incident: Incident) -> _PlaybookEntry | None:
        for entry in self._playbooks:
            if entry.match_substring in incident.short_description:
                return entry
        return None

    def _finish(
        self, incident: Incident, entry: _PlaybookEntry, record: RemediationRecord
    ) -> None:
        ok = bool(entry.playbook(incident))
        record.finished_ns = self._clock.now_ns
        record.succeeded = ok
        if ok:
            incident.resolve(
                self._clock.now_ns,
                note=f"auto-remediated via playbook '{entry.match_substring}'",
            )

    def success_rate(self) -> float:
        done = [r for r in self.records if r.succeeded is not None]
        if not done:
            return 0.0
        return sum(1 for r in done if r.succeeded) / len(done)
