"""Pipeline instrumentation: carrying trace context across the stack.

The hot path crosses three async boundaries where no function call links
cause to effect:

1. **producer → consumer** — bridged by a ``traceparent`` header on the
   broker :class:`~repro.bus.broker.Record` (Kafka-style headers, so the
   payload bytes the benches snapshot are untouched);
2. **store → rule evaluator** — a rule fires minutes after the triggering
   push, linked only by data.  We bridge it the way Grafana links alerts
   to traces: by *label correlation*.  Every store write registers its
   trace context under its correlation labels (``Context``, ``xname``,
   ...); a firing alert carrying a matching label joins that trace;
3. **alertmanager group → receiver** — bridged by remembering the firing
   alert's context per fingerprint until delivery.

Every framework builds one :class:`PipelineTracing` around its tracer,
whatever its sampling rate.  All state is bounded (FIFO) and every method
records nothing without a context, so an unsampled record, or any record
of a tracer at ``sampling = 0.0`` (tracing off), leaves no state behind.
A per-record site calls in here only for a record that has a context:
the consumer pump for one carrying a ``traceparent`` header, a store
write while the tracer's :attr:`~repro.tempo.tracer.Tracer.current` is
set.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Mapping

from repro.alerting.events import AlertEvent, AlertState
from repro.alerting.receivers import Notification, Receiver
from repro.bus.broker import Record
from repro.tempo.model import SpanContext
from repro.tempo.tracer import Tracer

#: Labels that identify *where* an alert came from, in lookup order.
#: They match the stream/series labels the stores were written with.
CORRELATION_LABELS = ("Context", "xname", "hostname", "context", "cdu", "pdu", "fs")


class PipelineTracing:
    """Shared correlation state between producers, stores and alerting."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Bound on each correlation registry below.
        self.max_pending = 4096
        # (label, value) -> (store-span context, data-available timestamp)
        self._pending: OrderedDict[tuple[str, str], tuple[SpanContext, int]] = (
            OrderedDict()
        )
        # alert fingerprint -> (evaluator-span context, fired timestamp)
        self._alert_spans: OrderedDict[int, tuple[SpanContext, int]] = OrderedDict()
        # alert fingerprint -> alertmanager-span context (one per firing)
        self._am_spans: OrderedDict[int, SpanContext] = OrderedDict()

    # ------------------------------------------------------------------
    # Boundary 1: broker record → consumer-side spans
    # ------------------------------------------------------------------
    def begin_record(
        self,
        record: Record,
        consumer_name: str,
        server_index: int | None = None,
    ) -> None:
        """Reconstruct the consume-side chain for one polled record.

        Records the queue-wait span (producer timestamp → now), the
        Telemetry-API fetch and the consumer pod span, and makes the
        consumer span the tracer's :attr:`~Tracer.current` context for
        the store write (``None`` for an untraced record); the pump
        clears it once the record is handled.
        """
        tracer = self.tracer
        producer_ctx = Tracer.extract(dict(record.headers))
        ctx = None
        if producer_ctx is not None and producer_ctx.sampled:
            broker_ctx = tracer.record(
                "broker",
                "queue",
                producer_ctx,
                start_ns=record.timestamp_ns,
                attributes={
                    "topic": record.topic,
                    "partition": record.partition,
                    "offset": record.offset,
                },
            )
            api_attrs = {} if server_index is None else {"server": server_index}
            api_ctx = tracer.record(
                "telemetry_api", "fetch", broker_ctx, attributes=api_attrs
            )
            ctx = tracer.record("consumer", consumer_name, api_ctx)
        tracer.current = ctx

    # ------------------------------------------------------------------
    # Boundary 2: store write → rule evaluation
    # ------------------------------------------------------------------
    def store_span(
        self,
        service: str,
        name: str,
        label_sets: Iterable[Mapping[str, str]],
    ) -> None:
        """Record the store-write span under the tracer's current context
        and register its correlation keys; nothing when there is none."""
        parent = self.tracer.current
        if parent is None:
            return
        now = self.tracer.now_ns
        ctx = self.tracer.record(service, name, parent)
        if ctx is not None:
            for labels in label_sets:
                self.continue_from_store(ctx, labels, now)

    def continue_from_store(
        self, ctx: SpanContext, labels: Mapping[str, str], available_ns: int
    ) -> None:
        """Remember: data carrying these labels belongs to ``ctx``."""
        for name in CORRELATION_LABELS:
            value = labels.get(name)
            if value:
                key = (name, value)
                self._pending[key] = (ctx, available_ns)
                self._pending.move_to_end(key)
        while len(self._pending) > self.max_pending:
            self._pending.popitem(last=False)

    def _correlate(self, labels: Mapping[str, str]) -> tuple[SpanContext, int] | None:
        for name in CORRELATION_LABELS:
            value = labels.get(name)
            if value and (hit := self._pending.get((name, value))):
                return hit
        return None

    def notifier(
        self, inner: Callable[[AlertEvent], None], service: str
    ) -> Callable[[AlertEvent], None]:
        """Wrap a rule evaluator's notifier to span the evaluation stage.

        The evaluator span covers data-available → fired: the rule's
        ``for`` sustain window plus the evaluation cadence, the dominant
        term in end-to-end alert latency.
        """

        def traced(event: AlertEvent) -> None:
            fp = event.fingerprint()
            if event.state is AlertState.FIRING and fp not in self._alert_spans:
                hit = self._correlate(event.labels)
                if hit is not None:
                    store_ctx, available_ns = hit
                    now = self.tracer.now_ns
                    ctx = self.tracer.record(
                        service,
                        event.name,
                        store_ctx,
                        start_ns=available_ns,
                        attributes={
                            "alertname": event.name,
                            "severity": event.severity,
                        },
                    )
                    if ctx is not None:
                        self._alert_spans[fp] = (ctx, now)
                        while len(self._alert_spans) > self.max_pending:
                            self._alert_spans.popitem(last=False)
            elif event.state is AlertState.RESOLVED:
                # A future re-fire of the same series starts a new span.
                self._alert_spans.pop(fp, None)
                self._am_spans.pop(fp, None)
            inner(event)

        return traced

    # ------------------------------------------------------------------
    # Boundary 3: alertmanager group → receiver delivery
    # ------------------------------------------------------------------
    def delivery_span(
        self, receiver_name: str, alert: AlertEvent, timestamp_ns: int
    ) -> None:
        """Span the group-wait (once per alert) and this receiver's notify."""
        fp = alert.fingerprint()
        hit = self._alert_spans.get(fp)
        if hit is None:
            return
        eval_ctx, fired_ns = hit
        am_ctx = self._am_spans.get(fp)
        if am_ctx is None:
            am_ctx = self.tracer.record(
                "alertmanager",
                "group_and_route",
                eval_ctx,
                start_ns=fired_ns,
                end_ns=timestamp_ns,
                attributes={"alertname": alert.name},
            )
            if am_ctx is None:
                return
            self._am_spans[fp] = am_ctx
            while len(self._am_spans) > self.max_pending:
                self._am_spans.popitem(last=False)
        self.tracer.record(
            receiver_name,
            "notify",
            am_ctx,
            start_ns=timestamp_ns,
            end_ns=timestamp_ns,
            attributes={"alertname": alert.name, "severity": alert.severity},
        )


class TracingReceiver:
    """Decorates a receiver so every firing delivery closes its trace."""

    def __init__(self, inner: Receiver, tracing: PipelineTracing) -> None:
        self.name = inner.name
        self._inner = inner
        self._tracing = tracing

    def notify(self, notification: Notification) -> None:
        for alert in notification.firing:
            self._tracing.delivery_span(
                self.name, alert, notification.timestamp_ns
            )
        self._inner.notify(notification)
