"""kafka-exporter equivalent: broker/topic/consumer-group metrics.

The community exporter NERSC installs to watch the telemetry bus itself —
"monitoring the monitoring", which is how a stuck consumer (growing lag)
becomes an alert before data is lost.
"""

from __future__ import annotations

from typing import Iterator

from repro.bus.broker import Broker
from repro.exporters.exporter import Exporter, Reading

_BROKER = (
    ("kafka_topic_messages_total", "counter",
     "Messages produced to the topic since broker start."),
    ("kafka_topic_bytes_total", "counter", "Bytes produced to the topic."),
    ("kafka_topic_retained_records", "gauge",
     "Records currently retained across partitions."),
    ("kafka_topic_partitions", "gauge", "Partition count."),
    ("kafka_consumergroup_lag", "gauge", "Records not yet consumed by the group."),
)


def _read_broker(broker: Broker) -> Iterator[Reading]:
    for topic in broker.topics():
        stats = broker.topic_stats(topic)
        labels = {"topic": topic}
        yield "kafka_topic_messages_total", stats["total_produced"], labels
        yield "kafka_topic_bytes_total", stats["total_bytes"], labels
        yield "kafka_topic_retained_records", stats["retained_records"], labels
        yield "kafka_topic_partitions", stats["partitions"], labels
    for group_id, topic in broker.group_ids():
        labels = {"consumergroup": group_id, "topic": topic}
        yield "kafka_consumergroup_lag", broker.lag(group_id, topic), labels


class KafkaExporter(Exporter):
    """Exports per-topic message counters and per-group lag."""

    def __init__(self, broker: Broker) -> None:
        super().__init__((_BROKER, _read_broker, broker))
