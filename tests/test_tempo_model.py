"""Span model, traceparent round-trips, tracer sampling, trace store."""

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock
from repro.tempo import Span, SpanContext, SpanStatus, TraceStore, Tracer

TRACE = "0af7651916cd43dd8448eb211c80319c"
SPAN = "b7ad6b7169203331"


def make_tracer(sampling=1.0, seed=0, max_traces=100):
    clock = SimClock()
    store = TraceStore()
    store.max_traces = max_traces
    return Tracer(store, clock, sampling=sampling, seed=seed), store, clock


class TestSpanContext:
    def test_traceparent_round_trip(self):
        ctx = SpanContext(TRACE, SPAN, sampled=True)
        assert ctx.to_traceparent() == f"00-{TRACE}-{SPAN}-01"
        assert SpanContext.from_traceparent(ctx.to_traceparent()) == ctx

    def test_unsampled_flag(self):
        ctx = SpanContext(TRACE, SPAN, sampled=False)
        assert ctx.to_traceparent().endswith("-00")
        assert SpanContext.from_traceparent(ctx.to_traceparent()).sampled is False

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "garbage",
            f"01-{TRACE}-{SPAN}-01",  # unknown version
            f"00-{TRACE[:-1]}-{SPAN}-01",  # short trace id
            f"00-{TRACE}-{SPAN}-0x",  # bad flags
        ],
    )
    def test_malformed_header_returns_none(self, bad):
        assert SpanContext.from_traceparent(bad) is None

    def test_bad_ids_rejected(self):
        with pytest.raises(ValidationError):
            SpanContext("xyz", SPAN)
        with pytest.raises(ValidationError):
            SpanContext(TRACE, "xyz")


class TestSpan:
    def test_duration_and_validation(self):
        span = Span(TRACE, SPAN, None, "loki", "push", 100, 250)
        assert span.duration_ns == 150
        assert span.is_root
        assert span.status is SpanStatus.OK
        with pytest.raises(ValidationError):
            Span(TRACE, SPAN, None, "loki", "push", 100, 50)
        with pytest.raises(ValidationError):
            Span(TRACE, SPAN, None, "", "push", 100)

    def test_open_span_has_zero_duration(self):
        span = Span(TRACE, SPAN, None, "loki", "push", 100)
        assert span.end_ns is None
        assert span.duration_ns == 0


class TestTracer:
    def test_record_builds_parent_chain(self):
        tracer, store, _ = make_tracer()
        root = tracer.record("redfish", "birth", None, 0, 10)
        child = tracer.record("broker", "queue", root, 10, 30)
        assert root.trace_id == child.trace_id
        spans = store.trace(root.trace_id)
        assert [s.service for s in spans] == ["redfish", "broker"]
        assert spans[1].parent_id == root.span_id
        assert store.duration_ns(root.trace_id) == 30

    def test_record_defaults_to_now_and_stringifies_attributes(self):
        tracer, store, clock = make_tracer()
        start = clock.now_ns
        clock.advance(50)
        root = tracer.record("selfheal", "heal", attributes={"copied": 3, "who": "i-1"})
        late = tracer.record("ruler", "eval", root, start_ns=start)
        spans = store.trace(root.trace_id)
        now = clock.now_ns
        assert [(s.start_ns, s.end_ns) for s in spans] == [(start, now), (now, now)]
        assert spans[1].attributes == {"copied": "3", "who": "i-1"}
        assert spans[0].span_id == late.span_id

    def test_sampling_zero_is_inert(self):
        tracer, store, _ = make_tracer(sampling=0.0)
        assert tracer.record("a", "b", None, 0, 1) is None
        assert store.spans_added == 0
        assert tracer.counters() == {
            "traces_started": 0,
            "traces_sampled_out": 0,
            "spans_recorded": 0,
        }

    def test_fractional_sampling_is_deterministic(self):
        counts = []
        for _ in range(2):
            tracer, store, _ = make_tracer(sampling=0.3, seed=42)
            for _ in range(200):
                tracer.record("svc", "op", None, 0, 1)
            counts.append((store.spans_added, tracer.traces_sampled_out))
        assert counts[0] == counts[1]
        kept, dropped = counts[0]
        assert 0 < kept < 200
        assert kept + dropped == 200

    def test_inject_extract_round_trip(self):
        tracer, _, _ = make_tracer()
        ctx = tracer.record("a", "b", None, 0, 1)
        carrier = Tracer.inject(ctx)
        assert Tracer.extract(carrier) == SpanContext(
            ctx.trace_id, ctx.span_id, sampled=True
        )
        assert Tracer.extract({}) is None

    def test_bad_sampling_rejected(self):
        with pytest.raises(ValueError):
            make_tracer(sampling=1.5)


class TestTraceStore:
    def test_search_by_all_axes(self):
        tracer, store, _ = make_tracer()
        a = tracer.record("loki", "push", None, 0, 5_000_000, {"Context": "x1"})
        tracer.record("ruler", "Leak", a, 5_000_000, 20_000_000)
        tracer.record("loki", "push", None, 0, 1_000_000, {"Context": "x2"})

        assert len(store.search(service="loki")) == 2
        assert len(store.search(service="loki", attrs={"Context": "x1"})) == 1
        assert len(store.search(name="Leak")) == 1
        hits = store.search(min_duration_ns=4_000_000)
        assert {h.trace_id for h in hits} == {a.trace_id}
        assert store.search(service="loki", limit=1)[0].span_count == 2

    def test_summary_and_root(self):
        tracer, store, _ = make_tracer()
        root = tracer.record("redfish", "birth", None, 100, 200)
        tracer.record("broker", "queue", root, 200, 900)
        summary = store.summary(root.trace_id)
        assert summary.root_service == "redfish"
        assert summary.duration_ns == 800
        assert summary.span_count == 2
        assert store.root(root.trace_id).span_id == root.span_id
        assert store.services(root.trace_id) == {"redfish", "broker"}
        assert store.summary("0" * 32) is None

    def test_fifo_eviction_drops_whole_traces(self):
        tracer, store, _ = make_tracer(max_traces=3)
        roots = [tracer.record("svc", f"op{i}", None, i, i + 1) for i in range(5)]
        assert len(store) == 3
        assert store.traces_evicted == 2
        assert store.trace(roots[0].trace_id) == []
        assert len(store.trace(roots[4].trace_id)) == 1
