"""The "K3s python pods": Telemetry-API consumers feeding the stores.

Paper §III: "K3s python pods ... are python-written clients running in a
Kubernetes environment. They read data in different Kafka topics via the
Telemetry API and send them to either Victoriametrics or Loki."

Each consumer owns one subscription and a ``pump()`` that drains the next
batch; the framework registers the pumps on the simulated clock.  Every
pod holds the framework's :class:`PipelineTracing`.  A record carrying a
``traceparent`` header (only a sampled producer span writes one)
continues its trace here: queue-wait, API fetch, pod handling and the
store write each become spans.  While a record is handled its pod span
is the tracer's current context, so the stages of the write below
(admission, the ring distributor) join it without the context being
passed to them.  An untraced record costs the pod no tracing call.
"""

from __future__ import annotations

from repro.common.errors import CapacityError, ValidationError
from repro.common.jsonutil import decode_log_envelope, loads
from repro.omni.warehouse import OmniWarehouse
from repro.ring.distributor import QuorumError
from repro.shasta.ldms import TOPIC_LDMS
from repro.shasta.telemetry_api import Subscription, TelemetryAPI
from repro.tempo.instrument import PipelineTracing
from repro.core.transform import redfish_payload_to_push

#: Processing failures (reliable mode) before a record is poison and
#: quarantines to its topic's dead-letter queue.
MAX_DELIVERY_FAILURES = 3


class _BaseConsumer:
    """Shared subscription plumbing."""

    #: Store service/operation this pod writes to, for its trace span.
    STORE_SERVICE = "loki"
    STORE_NAME = "push"

    def __init__(
        self,
        api: TelemetryAPI,
        token: str,
        topic: str,
        warehouse: OmniWarehouse,
        tracing: PipelineTracing,
        reliable: bool = False,
    ) -> None:
        self._api = api
        self._warehouse = warehouse
        self._sub: Subscription = api.subscribe(token, topic)
        self._tracing = tracing
        self._reliable = reliable
        self._throttle: int | None = None
        self.records_processed = 0
        self.records_failed = 0
        self.records_quarantined = 0

    def set_throttle(self, max_per_pump: int | None) -> None:
        """Cap records per pump (the ``SLOW_CONSUMER`` fault hook)."""
        if max_per_pump is not None and max_per_pump < 1:
            raise ValidationError("throttle must be positive or None")
        self._throttle = max_per_pump

    def lag(self) -> int:
        """Records beyond this pod's committed offsets."""
        return self._api.lag(self._sub)

    def pump(self, max_records: int = 1000) -> int:
        """Drain one batch; returns records successfully processed.

        In the legacy (at-most-once) mode offsets auto-commit on read, so
        a record whose processing fails is simply dropped.  In reliable
        mode offsets commit only after processing: a failing record blocks
        its partition and is redelivered next pump, until
        :data:`MAX_DELIVERY_FAILURES` attempts quarantine it to the topic's
        dead-letter queue and the pod commits past the poison.  A write
        the store refuses (a tenant's 429, a lost ring quorum) fails the
        record the same way, but never quarantines it: the refusal is the
        store's state, not the record's, so reliable mode redelivers it
        until the store takes it.
        """
        if self._throttle is not None:
            max_records = min(max_records, self._throttle)
        records = self._api.fetch(
            self._sub, max_records, auto_commit=not self._reliable
        )
        server = self._api.last_server_index
        tracing = self._tracing
        tracer = tracing.tracer
        #: partition -> offset of the record that blocked it this batch.
        blocked: dict[int, int] = {}
        done = 0
        for record in records:
            if record.partition in blocked:
                continue
            if record.headers:
                tracing.begin_record(record, type(self).__name__, server)
            try:
                self._handle(record.value, record.timestamp_ns)
                done += 1
            except ValidationError as err:
                self.records_failed += 1
                if self._reliable:
                    quarantined = self._api.fail_delivery(
                        self._sub, record, str(err), MAX_DELIVERY_FAILURES
                    )
                    if quarantined:
                        self.records_quarantined += 1
                    else:
                        blocked[record.partition] = record.offset
            except (CapacityError, QuorumError):
                self.records_failed += 1
                if self._reliable:
                    blocked[record.partition] = record.offset
            finally:
                tracer.current = None
        if self._reliable:
            for partition, offset in blocked.items():
                self._api.seek(self._sub, partition, offset)
            self._api.commit(self._sub)
        self.records_processed += done
        return done

    def _trace_store(self, label_sets) -> None:
        """Span the store write of the record currently being handled."""
        if self._tracing.tracer.current is not None:
            self._tracing.store_span(
                self.STORE_SERVICE, self.STORE_NAME, label_sets
            )

    def _handle(self, value: str, timestamp_ns: int) -> None:
        raise NotImplementedError


class RedfishEventConsumer(_BaseConsumer):
    """Redfish events: Fig.-2 payloads → §IV.A transform → Loki."""

    def __init__(
        self,
        api: TelemetryAPI,
        token: str,
        topic: str,
        warehouse: OmniWarehouse,
        cluster: str = "perlmutter",
        *,
        tracing: PipelineTracing,
        reliable: bool = False,
    ) -> None:
        super().__init__(
            api, token, topic, warehouse, tracing=tracing, reliable=reliable
        )
        self._cluster = cluster

    def _handle(self, value: str, timestamp_ns: int) -> None:
        payload = loads(value)
        push = redfish_payload_to_push(payload, cluster=self._cluster)
        self._warehouse.ingest_logs(push)
        self._trace_store([stream.labels for stream in push.streams])


class SensorMetricConsumer(_BaseConsumer):
    """Sensor telemetry: per-sample JSON → VictoriaMetrics.

    The metric name is derived from the sensor's physical context, e.g.
    ``shasta_temperature_celsius``.  Name and labels depend on the sensor
    alone, so they are built once per sensor: a table keyed on the
    decoded ``(Context, PhysicalContext, Index)`` holds them, and a sample
    of a known sensor only converts its value and timestamp.  A key joins
    the table once the store has accepted its series, and only a ``str``,
    ``str``, ``int`` key does (``1``, ``1.0`` and ``true`` are equal keys
    that spell three different labels); the table starts over at
    :attr:`MAX_SENSORS`.
    """

    STORE_SERVICE = "tsdb"
    STORE_NAME = "write"
    MAX_SENSORS = 1 << 16

    def __init__(
        self,
        api: TelemetryAPI,
        token: str,
        topic: str,
        warehouse: OmniWarehouse,
        cluster: str = "perlmutter",
        *,
        tracing: PipelineTracing,
        reliable: bool = False,
    ) -> None:
        super().__init__(
            api, token, topic, warehouse, tracing=tracing, reliable=reliable
        )
        self._cluster = cluster
        self._series: dict[tuple[str, str, int], tuple[str, dict[str, str]]] = {}

    def _handle(self, value: str, timestamp_ns: int) -> None:
        sample = loads(value)
        try:
            context = sample["Context"]
            physical = sample["PhysicalContext"]
            reading = float(sample["Value"])
            ts = int(sample["Timestamp"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValidationError(f"malformed sensor sample: {value[:80]}") from None
        index = sample.get("Index", 0)
        key = None
        if type(context) is str and type(physical) is str and type(index) is int:
            key = (context, physical, index)
        series = self._series.get(key)
        first_sight = series is None
        if first_sight:
            series = (
                f"shasta_{physical}",
                {"xname": context, "cluster": self._cluster, "index": str(index)},
            )
        name, labels = series
        self._warehouse.ingest_metric(name, labels, reading, ts)
        if first_sight and key is not None:
            if len(self._series) >= self.MAX_SENSORS:
                self._series.clear()
            self._series[key] = series
        self._trace_store([labels])


class LogLineConsumer(_BaseConsumer):
    """Syslog / container logs: JSON-envelope lines → Loki.

    The rsyslog aggregators and container runtimes produce envelopes of
    the form ``{"labels": {...}, "ts": 123, "line": "..."}``.
    """

    def _handle(self, value: str, timestamp_ns: int) -> None:
        labels, ts, line = decode_log_envelope(value)
        self._warehouse.ingest_log(labels, ts, line)
        self._trace_store([labels])


class LdmsConsumer(_BaseConsumer):
    """LDMS metric sets: one envelope per node → VictoriaMetrics.

    The envelope ``{"Cluster": …, "Context": xname, "Metrics": {name:
    value, …}, "Timestamp": ns}`` becomes one sample per metric, labelled
    by node and cluster.  The samplers publish no trace context, so its
    records cost the pod no tracing call.
    """

    def __init__(
        self,
        api: TelemetryAPI,
        token: str,
        warehouse: OmniWarehouse,
        tracing: PipelineTracing,
        reliable: bool = False,
    ) -> None:
        super().__init__(
            api, token, TOPIC_LDMS, warehouse, tracing=tracing, reliable=reliable
        )

    def _handle(self, value: str, timestamp_ns: int) -> None:
        envelope = loads(value)
        try:
            ts = int(envelope["Timestamp"])
            labels = {"xname": envelope["Context"], "cluster": envelope.get("Cluster", "")}
            metrics = envelope["Metrics"]
            if not isinstance(metrics, dict) or "" in metrics:
                raise ValidationError("LDMS metrics must be an object of named values")
            # Every value converts before the first one is written, so
            # a refused envelope leaves nothing behind.
            values = [(name, float(value)) for name, value in metrics.items()]
            for name, reading in values:
                self._warehouse.ingest_metric(name, labels, reading, ts)
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValidationError(f"malformed LDMS envelope: {value[:80]}") from None
