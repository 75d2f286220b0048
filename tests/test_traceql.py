"""TraceQL subset: lexer, parser, and engine evaluation."""

import pytest

from repro.common.errors import QueryError
from repro.common.simclock import SimClock
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer
from repro.tempo.traceql import TraceQLEngine, parse_query
from repro.tempo.traceql.ast import (
    BooleanExpr,
    DurationPredicate,
    FieldPredicate,
)
from repro.common.vectorlang import Tok, tokenize


@pytest.fixture
def engine():
    store = TraceStore()
    tracer = Tracer(store, SimClock())
    # Trace 1: redfish -> loki (slow push) -> ruler
    r1 = tracer.record("redfish", "birth", None, 0, 0, {"context": "x1203c1b0"})
    l1 = tracer.record("loki", "push", r1, 0, 8_000_000, {"Context": "x1203c1b0"})
    tracer.record(
        "ruler", "PerlmutterCabinetLeak", l1, 8_000_000, 90_000_000_000,
        {"alertname": "PerlmutterCabinetLeak", "severity": "critical"},
    )
    # Trace 2: a fast metric write
    r2 = tracer.record("redfish", "sensor", None, 0, 0, {"xname": "x1203c1s0b0n0"})
    tracer.record("tsdb", "write", r2, 0, 2_000_000)
    return TraceQLEngine(store)


class TestLexer:
    def test_tokens(self):
        kinds = [t.kind for t in tokenize('{ span.service = "loki" && duration > 5ms }')]
        assert kinds == [
            Tok.LBRACE, Tok.IDENT, Tok.DOT, Tok.IDENT, Tok.EQ, Tok.STRING,
            Tok.AND, Tok.IDENT, Tok.GT, Tok.DURATION, Tok.RBRACE, Tok.EOF,
        ]

    def test_or_and_parens(self):
        kinds = [t.kind for t in tokenize("(a || b)")]
        assert kinds == [
            Tok.LPAREN, Tok.IDENT, Tok.OR, Tok.IDENT, Tok.RPAREN, Tok.EOF
        ]

    def test_bad_character(self):
        with pytest.raises(QueryError):
            tokenize("{ span.service @ }")


class TestParser:
    def test_precedence_or_looser_than_and(self):
        q = parse_query('{ span.a = "1" || span.b = "2" && span.c = "3" }')
        assert isinstance(q.expr, BooleanExpr)
        assert q.expr.conjunction is False  # top is ||
        assert isinstance(q.expr.right, BooleanExpr)
        assert q.expr.right.conjunction is True

    def test_parens_override(self):
        q = parse_query('{ (span.a = "1" || span.b = "2") && span.c = "3" }')
        assert q.expr.conjunction is True

    def test_intrinsics_and_durations(self):
        q = parse_query('{ name =~ "push|write" && duration >= 1s500ms }')
        name_pred = q.expr.left
        dur_pred = q.expr.right
        assert isinstance(name_pred, FieldPredicate)
        assert name_pred.field == "name"
        assert isinstance(dur_pred, DurationPredicate)
        assert dur_pred.threshold_ns == 1_500_000_000

    def test_bare_number_duration_is_seconds(self):
        q = parse_query("{ duration > 2 }")
        assert q.expr.threshold_ns == 2_000_000_000

    @pytest.mark.parametrize(
        "bad",
        [
            "span.a = 1",  # missing braces
            "{ span.a = }",  # missing value
            "{ bogus = 1 }",  # unknown bare field
            "{ duration =~ \"x\" }",  # regex on duration
            "{ span.a > \"x\" }",  # ordering on string field
            "{ span.a =~ \"(\" }",  # bad regex
            "{ span.a = \"1\" ",  # unterminated
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestEngine:
    def test_service_and_duration(self, engine):
        spans = engine.find_spans('{ span.service = "loki" && duration > 5ms }')
        assert [s.name for s in spans] == ["push"]
        assert engine.find_spans('{ span.service = "loki" && duration > 10ms }') == []

    def test_attribute_matching(self, engine):
        spans = engine.find_spans('{ span.alertname = "PerlmutterCabinetLeak" }')
        assert len(spans) == 1 and spans[0].service == "ruler"
        # A missing attribute fails every operator, != included.
        assert engine.find_spans('{ span.nosuch != "anything" }') == []

    def test_regex_and_or(self, engine):
        spans = engine.find_spans('{ name =~ "push|write" }')
        assert {s.service for s in spans} == {"loki", "tsdb"}
        spans = engine.find_spans(
            '{ span.service = "ruler" || span.service = "tsdb" }'
        )
        assert {s.service for s in spans} == {"ruler", "tsdb"}

    def test_find_traces_returns_summaries(self, engine):
        traces = engine.find_traces("{ duration > 1m }")
        assert len(traces) == 1
        assert traces[0].root_service == "redfish"
        assert traces[0].span_count == 3
        assert engine.find_traces('{ span.service = "redfish" }', limit=1)

    def test_limit(self, engine):
        assert len(engine.find_spans('{ span.service =~ ".*" }', limit=2)) == 2
