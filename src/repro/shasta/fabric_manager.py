"""Slingshot Fabric Manager and the NERSC switch-state monitor (§IV.B).

The Fabric Manager "manages all switches [and] provides an API for
querying the state of each switch".  NERSC runs a Python program that
polls that API periodically and, on any state change, pushes an event
line to Loki in the exact format of the paper:

    [critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN

The monitor here is that program; its sink is pluggable (in production
wiring it is a Loki push client).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.simclock import SimClock
from repro.common.xname import XName
from repro.cluster.topology import Cluster, SwitchState

#: Labels the monitor attaches to its Loki stream (paper Fig. 7 shows
#: ``app`` and ``cluster``).
MONITOR_APP_LABEL = "fabric_manager_monitor"

_SEVERITY_FOR_STATE = {
    SwitchState.ONLINE: "info",
    SwitchState.OFFLINE: "critical",
    SwitchState.UNKNOWN: "critical",
}


class FabricManager:
    """The HPE-provided switch-state query API."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self.queries_served = 0

    def get_switch_states(self) -> dict[str, str]:
        """Return ``{xname: state}`` for every Rosetta switch."""
        self.queries_served += 1
        return {
            str(x): sw.state.value for x, sw in sorted(self._cluster.switches.items())
        }

    def get_switch_state(self, xname: XName | str) -> str:
        self.queries_served += 1
        return self._cluster.switch(xname).state.value


@dataclass(frozen=True)
class SwitchEvent:
    """One state-change observation from the monitor."""

    timestamp_ns: int
    severity: str
    problem: str
    xname: str
    state: str

    def to_line(self) -> str:
        """The paper's wire format (§IV.B sample event)."""
        return (
            f"[{self.severity}] problem:{self.problem}, "
            f"xname:{self.xname}, state:{self.state}"
        )


class FabricManagerMonitor:
    """NERSC's poller: query the FM API, emit an event on any state change.

    ``sink`` receives each :class:`SwitchEvent`; the production wiring
    forwards to Loki with labels ``{app="fabric_manager_monitor",
    cluster=<name>}``.
    """

    def __init__(
        self,
        fabric_manager: FabricManager,
        clock: SimClock,
        sink: Callable[[SwitchEvent], None],
        cluster_name: str = "perlmutter",
    ) -> None:
        self._fm = fabric_manager
        self._clock = clock
        self._sink = sink
        self.cluster_name = cluster_name
        self._last_states: dict[str, str] = self._fm.get_switch_states()
        self.events_emitted = 0

    def poll_once(self) -> list[SwitchEvent]:
        """One polling pass; emits events for every changed switch."""
        now = self._clock.now_ns
        current = self._fm.get_switch_states()
        events: list[SwitchEvent] = []
        for xname, state in current.items():
            prev = self._last_states.get(xname)
            if state != prev:
                sev = _SEVERITY_FOR_STATE[SwitchState(state)]
                problem = (
                    "fm_switch_offline"
                    if state != SwitchState.ONLINE.value
                    else "fm_switch_online"
                )
                event = SwitchEvent(
                    timestamp_ns=now,
                    severity=sev,
                    problem=problem,
                    xname=xname,
                    state=state,
                )
                events.append(event)
                self._sink(event)
        self._last_states = current
        self.events_emitted += len(events)
        return events
