"""Redfish events in the paper's exact wire format.

Figure 2 of the paper shows a leak event as pulled from the Telemetry API:

.. code-block:: json

    {"metrics": {"messages": [{
        "Context": "x1203c1b0",
        "Events": [{
            "EventTimestamp": "2022-03-03T01:47:57+00:00",
            "Severity": "Warning",
            "Message": "Sensor 'A' of the redundant leak sensors in the
                        'Front' cabinet zone has detected a leak.",
            "MessageId": "CrayAlerts.1.0.CabinetLeakDetected",
            "MessageArgs": ["A, Front"],
            "OriginOfCondition": {"@odata.id": "/redfish/v1/Chassis/Enclosure"}
        }]
    }]}}

This module builds those payloads and provides an event *source* that
watches the synthetic cluster for state transitions (leak detected /
cleared, power state changes) and emits the corresponding events, exactly
as the BMC Redfish endpoints push to the HMS collector in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.jsonutil import ns_to_iso8601
from repro.common.simclock import SimClock
from repro.common.xname import XName
from repro.cluster.topology import Cabinet, Cluster, NodeState

MSG_ID_LEAK = "CrayAlerts.1.0.CabinetLeakDetected"
MSG_ID_LEAK_CLEARED = "CrayAlerts.1.0.CabinetLeakCleared"
MSG_ID_POWER_OFF = "CrayAlerts.1.0.PowerStateChangedToOff"
MSG_ID_POWER_ON = "CrayAlerts.1.0.PowerStateChangedToOn"

ODATA_ENCLOSURE = "/redfish/v1/Chassis/Enclosure"
ODATA_NODE = "/redfish/v1/Systems/Node"


@dataclass(frozen=True)
class RedfishEvent:
    """A single Redfish event, pre-serialisation."""

    context: str  # xname of the reporting controller
    timestamp_ns: int
    severity: str
    message: str
    message_id: str
    message_args: tuple[str, ...] = ()
    origin_odata_id: str = ODATA_ENCLOSURE

    def to_json_obj(self) -> dict[str, Any]:
        """The ``Events[i]`` element of the Figure-2 payload."""
        return {
            "EventTimestamp": ns_to_iso8601(self.timestamp_ns),
            "Severity": self.severity,
            "Message": self.message,
            "MessageId": self.message_id,
            "MessageArgs": list(self.message_args),
            "OriginOfCondition": {"@odata.id": self.origin_odata_id},
        }


def telemetry_payload(events: list[RedfishEvent]) -> dict[str, Any]:
    """Wrap events into the nested Telemetry-API JSON of Figure 2.

    Events are grouped into one ``messages`` element per reporting context,
    preserving arrival order within each context.
    """
    by_context: dict[str, list[RedfishEvent]] = {}
    order: list[str] = []
    for ev in events:
        if ev.context not in by_context:
            by_context[ev.context] = []
            order.append(ev.context)
        by_context[ev.context].append(ev)
    return {
        "metrics": {
            "messages": [
                {
                    "Context": ctx,
                    "Events": [ev.to_json_obj() for ev in by_context[ctx]],
                }
                for ctx in order
            ]
        }
    }


def cabinet_leak_event(
    controller: XName, zone: str, sensor: str, timestamp_ns: int, detected: bool = True
) -> RedfishEvent:
    """Build the paper's leak event (or its all-clear counterpart)."""
    if detected:
        message = (
            f"Sensor '{sensor}' of the redundant leak sensors in the "
            f"'{zone}' cabinet zone has detected a leak."
        )
        return RedfishEvent(
            context=str(controller),
            timestamp_ns=timestamp_ns,
            severity="Warning",
            message=message,
            message_id=MSG_ID_LEAK,
            message_args=(f"{sensor}, {zone}",),
            origin_odata_id=ODATA_ENCLOSURE,
        )
    message = (
        f"Sensor '{sensor}' of the redundant leak sensors in the "
        f"'{zone}' cabinet zone is no longer detecting a leak."
    )
    return RedfishEvent(
        context=str(controller),
        timestamp_ns=timestamp_ns,
        severity="OK",
        message=message,
        message_id=MSG_ID_LEAK_CLEARED,
        message_args=(f"{sensor}, {zone}",),
        origin_odata_id=ODATA_ENCLOSURE,
    )


def node_power_event(
    node: XName, timestamp_ns: int, powered_on: bool
) -> RedfishEvent:
    state = "On" if powered_on else "Off"
    return RedfishEvent(
        context=str(node.parent() or node),
        timestamp_ns=timestamp_ns,
        severity="OK" if powered_on else "Critical",
        message=f"The power state of node {node} has changed to {state}.",
        message_id=MSG_ID_POWER_ON if powered_on else MSG_ID_POWER_OFF,
        message_args=(str(node), state),
        origin_odata_id=ODATA_NODE,
    )


class RedfishEventSource:
    """Watches cluster state and emits Redfish events on transitions.

    BMC Redfish endpoints are event-driven; we reproduce that by diffing the
    observable state (leak sensors, node power) between polls.  The chassis
    controller of chassis 1 reports cabinet-zone leaks, matching the paper's
    ``x1203c1b0`` context for a cabinet-level event.
    """

    def __init__(self, cluster: Cluster, clock: SimClock) -> None:
        self._clock = clock
        # The topology and each cabinet's leak sensors are fixed once the
        # cluster is built, so the poll order is sorted here, once: per
        # cabinet its reporting controller, its leak keys in order and the
        # states last seen; per node the state last seen.
        self._cabinets = [
            (
                cab,
                self._reporting_controller(cluster, cab),
                sorted(cab.leak_state),
                dict(cab.leak_state),
            )
            for _cab_x, cab in sorted(cluster.cabinets.items())
        ]
        self._nodes = sorted(cluster.nodes.items())
        self._node_seen = [node.state for _node_x, node in self._nodes]

    @staticmethod
    def _reporting_controller(cluster: Cluster, cab: Cabinet) -> XName:
        """The chassis BMC that carries cabinet-environment events."""
        first_chassis = cab.chassis[0] if len(cab.chassis) == 1 else cab.chassis[1]
        return cluster.chassis_controller_xname(first_chassis)

    def poll(self) -> list[RedfishEvent]:
        """Diff state since the last poll; return new events."""
        now = self._clock.now_ns
        events: list[RedfishEvent] = []
        for cab, controller, leak_keys, seen in self._cabinets:
            for key in leak_keys:
                state = cab.leak_state[key]
                if state != seen[key]:
                    zone, sensor = key
                    events.append(
                        cabinet_leak_event(controller, zone, sensor, now, state)
                    )
                    seen[key] = state
        seen_states = self._node_seen
        for i, (node_x, node) in enumerate(self._nodes):
            if node.state is not seen_states[i]:
                events.append(
                    node_power_event(node_x, now, node.state is NodeState.UP)
                )
                seen_states[i] = node.state
        return events
