"""PipelineTracing edge cases: missing context, correlation, re-fires."""

import pytest

from repro.alerting.events import AlertEvent, AlertState
from repro.alerting.receivers import MemoryReceiver, Notification
from repro.bus.broker import Broker
from repro.common.errors import RateLimitedError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, seconds
from repro.loki.model import PushRequest
from repro.ring.cluster import RingLokiCluster
from repro.tempo.instrument import PipelineTracing, TracingReceiver
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer
from repro.tenancy.admission import AdmissionController
from repro.tenancy.limits import LimitsRegistry, TenantLimits


def make_tracing(max_pending=4096):
    clock = SimClock()
    store = TraceStore()
    tracer = Tracer(store, clock)
    tracing = PipelineTracing(tracer)
    tracing.max_pending = max_pending
    return tracing, store, clock


def alert_event(state=AlertState.FIRING, ts=0, **labels):
    labels.setdefault("alertname", "Leak")
    labels.setdefault("severity", "critical")
    return AlertEvent(
        labels=LabelSet(labels),
        annotations={},
        state=state,
        value=1.0,
        started_at_ns=ts,
        fired_at_ns=ts,
    )


class TestBeginRecord:
    def test_record_without_headers_is_untraced(self):
        tracing, store, clock = make_tracing()
        broker = Broker(clock)
        broker.create_topic("t")
        record = broker.produce("t", "payload")
        assert record.headers == ()
        tracing.begin_record(record, "C")
        assert tracing.tracer.current is None
        assert store.spans_added == 0

    def test_record_with_context_builds_consume_chain(self):
        tracing, store, clock = make_tracing()
        broker = Broker(clock)
        broker.create_topic("t")
        root = tracing.tracer.record("redfish", "birth", None, 0, 0)
        record = broker.produce(
            "t", "payload", headers=tuple(Tracer.inject(root).items())
        )
        clock.advance(seconds(10))
        tracing.begin_record(record, "RedfishEventConsumer", server_index=1)
        ctx = tracing.tracer.current
        assert ctx is not None and ctx.trace_id == root.trace_id
        spans = store.trace(root.trace_id)
        assert [s.service for s in spans] == [
            "redfish", "broker", "telemetry_api", "consumer",
        ]
        queue = spans[1]
        assert queue.duration_ns == seconds(10)
        assert queue.attributes["topic"] == "t"
        assert spans[2].attributes["server"] == "1"

    def test_malformed_header_ignored(self):
        tracing, store, clock = make_tracing()
        broker = Broker(clock)
        broker.create_topic("t")
        record = broker.produce("t", "v", headers=(("traceparent", "junk"),))
        tracing.begin_record(record, "C")
        assert tracing.tracer.current is None
        assert store.spans_added == 0


class TestCurrentContext:
    """The write path's stages join the tracer's current context, and
    record nothing without one."""

    def test_store_span_without_current_context_records_nothing(self):
        tracing, store, _ = make_tracing()
        tracing.store_span("loki", "push", [{"Context": "x1"}])
        assert store.spans_added == 0

    def test_admission_spans_join_the_current_context(self):
        tracing, store, clock = make_tracing()
        # Two lines of burst and no refill: two pushes in, the third out.
        registry = LimitsRegistry(
            TenantLimits(ingestion_rate_lines_s=1e-9, ingestion_burst_lines=2)
        )
        admission = AdmissionController(registry, clock, tracer=tracing.tracer)
        request = PushRequest.single({"app": "a"}, [(1, "line")])
        admission.admit_push(request)  # no current context: no span
        assert store.spans_added == 0
        root = tracing.tracer.current = tracing.tracer.record("redfish", "birth")
        admission.admit_push(request)
        with pytest.raises(RateLimitedError):
            admission.admit_push(request)
        spans = store.trace(root.trace_id)
        assert [s.name for s in spans] == ["birth", "admit", "reject:rate_limited"]
        assert all(s.parent_id == root.span_id for s in spans[1:])
        assert spans[-1].attributes == {"tenant": "ops", "entries": "1"}

    def test_distributor_spans_join_the_current_context(self):
        tracing, store, _ = make_tracing()
        ring = RingLokiCluster(
            ingesters=3, replication_factor=3, tracer=tracing.tracer
        )
        request = PushRequest.single({"app": "a"}, [(1, "line")])
        ring.push(request)
        assert store.spans_added == 0
        root = tracing.tracer.current = tracing.tracer.record("redfish", "birth")
        ring.push(request)
        spans = store.trace(root.trace_id)
        push = spans[1]
        assert (push.service, push.name, push.parent_id) == (
            "distributor", "push", root.span_id,
        )
        assert push.attributes == {"streams": "1", "rf": "3"}
        assert sorted(s.attributes["ingester"] for s in spans[2:]) == [
            "ingester-0", "ingester-1", "ingester-2",
        ]
        assert {s.parent_id for s in spans[2:]} == {push.span_id}


class TestCorrelation:
    def test_alert_joins_trace_via_label(self):
        tracing, store, clock = make_tracing()
        root = tracing.tracer.record("redfish", "birth", None, 0, 0)
        tracing.tracer.current = root
        tracing.store_span("loki", "push", [{"Context": "x1203c1b0"}])
        clock.advance(seconds(90))
        received = []
        notify = tracing.notifier(received.append, "ruler")
        notify(alert_event(Context="x1203c1b0", ts=clock.now_ns))
        assert len(received) == 1
        spans = store.trace(root.trace_id)
        assert [s.service for s in spans] == ["redfish", "loki", "ruler"]
        assert spans[-1].duration_ns == seconds(90)

    def test_uncorrelated_alert_records_nothing_but_passes_through(self):
        tracing, store, _ = make_tracing()
        received = []
        notify = tracing.notifier(received.append, "ruler")
        notify(alert_event(Context="unseen"))
        assert len(received) == 1
        assert store.spans_added == 0

    def test_refire_after_resolve_gets_a_new_span(self):
        tracing, store, clock = make_tracing()
        root = tracing.tracer.record("redfish", "birth", None, 0, 0)
        tracing.tracer.current = root
        tracing.store_span("loki", "push", [{"Context": "x1"}])
        notify = tracing.notifier(lambda e: None, "ruler")
        firing = alert_event(Context="x1")
        notify(firing)
        notify(firing)  # repeat while firing: no duplicate span
        assert sum(1 for s in store.all_spans() if s.service == "ruler") == 1
        notify(alert_event(state=AlertState.RESOLVED, Context="x1"))
        clock.advance(seconds(30))
        notify(alert_event(Context="x1"))
        assert sum(1 for s in store.all_spans() if s.service == "ruler") == 2

    def test_pending_registry_is_bounded(self):
        tracing, _, _ = make_tracing(max_pending=2)
        root = tracing.tracer.record("redfish", "birth", None, 0, 0)
        for i in range(5):
            tracing.tracer.current = root
            tracing.store_span("loki", "push", [{"xname": f"x{i}"}])
        assert len(tracing._pending) == 2


class TestDelivery:
    def test_receiver_wrapper_spans_firing_alerts_only(self):
        tracing, store, clock = make_tracing()
        root = tracing.tracer.record("redfish", "birth", None, 0, 0)
        tracing.tracer.current = root
        tracing.store_span("loki", "push", [{"Context": "x1"}])
        notify = tracing.notifier(lambda e: None, "ruler")
        firing = alert_event(Context="x1")
        notify(firing)
        clock.advance(seconds(30))
        inner = MemoryReceiver(name="slack")
        receiver = TracingReceiver(inner, tracing)
        assert receiver.name == "slack"
        notification = Notification(
            receiver="slack",
            group_key=LabelSet({"alertname": "Leak"}),
            alerts=(firing, alert_event(state=AlertState.RESOLVED, Context="x2")),
            timestamp_ns=clock.now_ns,
        )
        receiver.notify(notification)
        assert len(inner.notifications) == 1
        services = [s.service for s in store.trace(root.trace_id)]
        assert services == ["redfish", "loki", "ruler", "alertmanager", "slack"]
        am = [s for s in store.trace(root.trace_id) if s.service == "alertmanager"]
        assert am[0].duration_ns == seconds(30)

    def test_delivery_without_eval_span_is_noop(self):
        tracing, store, _ = make_tracing()
        tracing.delivery_span("slack", alert_event(Context="x9"), 0)
        assert store.spans_added == 0

    def test_two_receivers_share_one_alertmanager_span(self):
        tracing, store, clock = make_tracing()
        root = tracing.tracer.record("redfish", "birth", None, 0, 0)
        tracing.tracer.current = root
        tracing.store_span("loki", "push", [{"Context": "x1"}])
        notify = tracing.notifier(lambda e: None, "ruler")
        firing = alert_event(Context="x1")
        notify(firing)
        clock.advance(seconds(30))
        tracing.delivery_span("slack", firing, clock.now_ns)
        tracing.delivery_span("servicenow", firing, clock.now_ns)
        spans = store.trace(root.trace_id)
        assert sum(1 for s in spans if s.service == "alertmanager") == 1
        assert {s.service for s in spans if s.name == "notify"} == {
            "slack", "servicenow",
        }
