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
from repro.common.jsonutil import dumps_compact, json_float
from repro.common.simclock import SimClock, days
from repro.cluster.sensors import SensorBank, SensorId
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
        *,
        tracer: Tracer,
    ) -> None:
        self._broker = broker
        self._clock = clock
        self._event_source = event_source
        self._sensors = sensors
        self._tracer = tracer
        self.events_collected = 0
        self.samples_collected = 0
        #: One ``_sensor_entry`` per sensor, in the bank's order.
        self._sensor_entries: list[tuple[str, str, dict[str, str]]] = []
        for topic in ALL_TOPICS:
            broker.ensure_topic(
                topic, TopicConfig(partitions=4, retention_ns=HPE_RETENTION_NS)
            )

    def _trace_headers(
        self, name: str, start_ns: int, attributes: dict[str, str]
    ) -> tuple[tuple[str, str], ...]:
        """Root a trace at data birth; empty when tracing is off/sampled out."""
        ctx = self._tracer.record(
            "redfish", name, start_ns=start_ns, attributes=attributes
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
    @staticmethod
    def _sensor_entry(sid: SensorId) -> tuple[str, str, dict[str, str]]:
        """What a sample owes to its sensor alone: the envelope up to
        ``"Timestamp":`` (keys sort Context, Index, PhysicalContext,
        Timestamp, Value), the record key and the trace attributes."""
        xname = str(sid.xname)
        fixed = dumps_compact(
            {"Context": xname, "Index": sid.index, "PhysicalContext": sid.kind.value}
        )
        head = f'{fixed[:-1]},"Timestamp":'
        return head, xname, {"xname": xname, "physical": sid.kind.value}

    def collect_sensors(self) -> int:
        """Snapshot every sensor into the telemetry topic."""
        bank = self._sensors
        if bank is None:
            return 0
        entries = self._sensor_entries
        if len(entries) < len(bank):  # sensors only ever join the bank
            entries.extend(map(self._sensor_entry, bank.sensors()[len(entries):]))
        now = self._clock.now_ns
        stamp = f'{now:d},"Value":'
        produce = self._broker.produce
        # One sampling check per batch, not a root span call per sample.
        traced = self._tracer.sampling > 0.0
        for (head, key, attributes), value in zip(entries, bank.snapshot()):
            headers = (
                self._trace_headers("hms.sensor_sample", now, attributes)
                if traced else ()
            )
            produce(
                TOPIC_SENSOR_TELEMETRY,
                f"{head}{stamp}{json_float(round(value, 3))}}}",
                key=key,
                headers=headers,
            )
        n = len(entries)
        self.samples_collected += n
        return n
