"""HMS (hardware management service) collector.

Paper §IV workflow: "Redfish endpoint on each controller push metrics and
events (e.g. power down) to an HMS collector. The HMS collector pushes
data to Kafka, where Kafka stores data in different topics by categories."

The collector serialises Redfish events into the Figure-2 payload and
sensor readings into per-sample JSON, keyed by reporting xname so that
per-component ordering is preserved across partitions.
"""

from __future__ import annotations

from repro.bus.broker import Broker, TopicConfig
from repro.common.jsonutil import dumps_compact
from repro.common.simclock import SimClock, days
from repro.cluster.sensors import SensorBank
from repro.shasta.redfish import RedfishEvent, RedfishEventSource, telemetry_payload
from repro.tempo.tracer import Tracer

TOPIC_REDFISH_EVENTS = "cray-dmtf-resource-event"
TOPIC_SENSOR_TELEMETRY = "cray-telemetry-sensor"
TOPIC_SYSLOG = "shasta-syslog"
TOPIC_CONTAINER_LOGS = "shasta-container-logs"

#: HPE keeps event data for no more than two months (paper §I) — the very
#: limitation OMNI exists to work around.
HPE_RETENTION_NS = days(60)

ALL_TOPICS = (
    TOPIC_REDFISH_EVENTS,
    TOPIC_SENSOR_TELEMETRY,
    TOPIC_SYSLOG,
    TOPIC_CONTAINER_LOGS,
)


class HmsCollector:
    """Bridges Redfish endpoints and sensors into Kafka topics."""

    def __init__(
        self,
        broker: Broker,
        clock: SimClock,
        event_source: RedfishEventSource | None = None,
        sensors: SensorBank | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._broker = broker
        self._clock = clock
        self._event_source = event_source
        self._sensors = sensors
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self.events_collected = 0
        self.samples_collected = 0
        for topic in ALL_TOPICS:
            broker.ensure_topic(
                topic, TopicConfig(partitions=4, retention_ns=HPE_RETENTION_NS)
            )

    def _trace_headers(
        self, name: str, start_ns: int, attributes: dict[str, str]
    ) -> tuple[tuple[str, str], ...]:
        """Root a trace at data birth; empty when tracing is off/sampled out."""
        if self._tracer is None:
            return ()
        ctx = self._tracer.record(
            "redfish", name, None, start_ns, self._clock.now_ns, attributes
        )
        if ctx is None:
            return ()
        return tuple(Tracer.inject(ctx).items())

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def publish_events(self, events: list[RedfishEvent]) -> int:
        """Publish events, one Telemetry-API payload per reporting context."""
        by_context: dict[str, list[RedfishEvent]] = {}
        for ev in events:
            by_context.setdefault(ev.context, []).append(ev)
        for context, ctx_events in by_context.items():
            payload = telemetry_payload(ctx_events)
            headers = self._trace_headers(
                "hms.publish_events",
                min(ev.timestamp_ns for ev in ctx_events),
                {"context": context, "events": str(len(ctx_events))},
            )
            self._broker.produce(
                TOPIC_REDFISH_EVENTS,
                dumps_compact(payload),
                key=context,
                headers=headers,
            )
        self.events_collected += len(events)
        return len(events)

    def collect_events(self) -> int:
        """Poll the Redfish source once and publish whatever transitioned."""
        if self._event_source is None:
            return 0
        events = self._event_source.poll()
        if events:
            self.publish_events(events)
        return len(events)

    # ------------------------------------------------------------------
    # Sensor telemetry
    # ------------------------------------------------------------------
    def collect_sensors(self) -> int:
        """Snapshot every sensor into the telemetry topic."""
        if self._sensors is None:
            return 0
        now = self._clock.now_ns
        n = 0
        for sid, value in self._sensors.read_all():
            sample = {
                "Context": str(sid.xname),
                "PhysicalContext": sid.kind.value,
                "Index": sid.index,
                "Timestamp": now,
                "Value": round(value, 3),
            }
            headers = self._trace_headers(
                "hms.sensor_sample",
                now,
                {"xname": str(sid.xname), "physical": sid.kind.value},
            )
            self._broker.produce(
                TOPIC_SENSOR_TELEMETRY,
                dumps_compact(sample),
                key=str(sid.xname),
                headers=headers,
            )
            n += 1
        self.samples_collected += n
        return n
