"""Tests for the LogQL lexer and parser."""

import pytest

from repro.common.errors import QueryError
from repro.common.labels import MatchOp
from repro.common.simclock import minutes
from repro.common.vectorlang import (
    BinOp,
    CmpOp,
    GroupMode,
    Scalar,
    Tok,
    VectorAgg,
    VectorOp,
    tokenize,
)
from repro.loki.logql.ast import (
    LabelFilter,
    LineFilter,
    LineFilterOp,
    LogPipeline,
    ParserKind,
    ParserStage,
    RangeAgg,
    RangeFunc,
)
from repro.loki.logql.parser import parse


class TestLexer:
    def test_selector_tokens(self):
        kinds = [t.kind for t in tokenize('{a="b"}')]
        assert kinds == [Tok.LBRACE, Tok.IDENT, Tok.EQ, Tok.STRING, Tok.RBRACE, Tok.EOF]

    def test_multichar_operators(self):
        kinds = [t.kind for t in tokenize('|= |~ != !~ =~ == >= <=')][:-1]
        assert kinds == [
            Tok.PIPE_EXACT,
            Tok.PIPE_MATCH,
            Tok.NEQ,
            Tok.NRE,
            Tok.RE,
            Tok.EQL,
            Tok.GTE,
            Tok.LTE,
        ]

    def test_duration_vs_number(self):
        toks = tokenize("60m 60 1h30m")
        assert [t.kind for t in toks][:-1] == [Tok.DURATION, Tok.NUMBER, Tok.DURATION]

    def test_string_escapes(self):
        (tok, _) = tokenize(r'"a\"b\n"')
        assert tok.text == 'a"b\n'

    def test_backtick_raw_string(self):
        (tok, _) = tokenize(r'`a\nb`')
        assert tok.text == r"a\nb"

    def test_unterminated_string(self):
        with pytest.raises(QueryError):
            tokenize('"abc')

    def test_unexpected_character(self):
        with pytest.raises(QueryError):
            tokenize("{a@b}")


class TestParseSelectors:
    def test_simple_selector(self):
        expr = parse('{app="fabric_manager_monitor"}')
        assert isinstance(expr, LogPipeline)
        (m,) = expr.matchers
        assert (m.name, m.op, m.value) == ("app", MatchOp.EQ, "fabric_manager_monitor")

    def test_multi_matcher(self):
        expr = parse('{a="1", b!="2", c=~"x.*", d!~"y"}')
        assert [m.op for m in expr.matchers] == [
            MatchOp.EQ,
            MatchOp.NEQ,
            MatchOp.RE,
            MatchOp.NRE,
        ]

    def test_empty_selector_rejected(self):
        with pytest.raises(QueryError):
            parse("{}")

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            parse("   ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse('{a="b"} xyz')


class TestParsePipelines:
    def test_line_filters(self):
        expr = parse('{a="b"} |= "yes" != "no" |~ "re.*" !~ "nre"')
        ops = [s.op for s in expr.stages if isinstance(s, LineFilter)]
        assert ops == [
            LineFilterOp.CONTAINS,
            LineFilterOp.NOT_CONTAINS,
            LineFilterOp.MATCHES,
            LineFilterOp.NOT_MATCHES,
        ]

    def test_json_stage(self):
        expr = parse('{a="b"} | json')
        assert expr.stages == (ParserStage(ParserKind.JSON),)

    def test_logfmt_stage(self):
        expr = parse('{a="b"} | logfmt')
        assert expr.stages[0].kind is ParserKind.LOGFMT

    def test_pattern_stage(self):
        expr = parse('{a="b"} | pattern "[<sev>] x:<x>"')
        stage = expr.stages[0]
        assert stage.kind is ParserKind.PATTERN and stage.arg == "[<sev>] x:<x>"

    def test_invalid_pattern_rejected_eagerly(self):
        with pytest.raises(QueryError):
            parse('{a="b"} | pattern "no captures here"')

    def test_label_filter_string(self):
        expr = parse('{a="b"} | json | severity="Warning"')
        lf = expr.stages[1]
        assert isinstance(lf, LabelFilter)
        assert lf.matcher is not None and lf.matcher.value == "Warning"

    def test_label_filter_numeric(self):
        expr = parse('{a="b"} | json | latency_ms > 100')
        lf = expr.stages[1]
        assert lf.cmp is CmpOp.GT and lf.number == 100.0

    def test_bad_regex_in_line_filter(self):
        with pytest.raises(QueryError):
            parse('{a="b"} |~ "("')


class TestParseMetricQueries:
    def test_paper_figure5_query(self):
        expr = parse(
            'sum(count_over_time({data_type="redfish_event"} '
            '|= "CabinetLeakDetected" | json [60m])) '
            "by (severity, cluster, context, message_id, message)"
        )
        assert isinstance(expr, VectorAgg)
        assert expr.op is VectorOp.SUM
        assert expr.mode is GroupMode.BY
        assert expr.labels == ("severity", "cluster", "context", "message_id", "message")
        inner = expr.expr
        assert isinstance(inner, RangeAgg)
        assert inner.func is RangeFunc.COUNT_OVER_TIME
        assert inner.range_ns == minutes(60)
        assert len(inner.pipeline.stages) == 2

    def test_by_before_parens(self):
        a = parse('sum by (x) (count_over_time({l="v"}[5m]))')
        b = parse('sum(count_over_time({l="v"}[5m])) by (x)')
        assert a == b

    def test_without(self):
        expr = parse('max without (x) (rate({a="b"}[1m]))')
        assert expr.mode is GroupMode.WITHOUT

    def test_all_range_funcs(self):
        for fn in ("count_over_time", "rate", "bytes_over_time", "bytes_rate"):
            expr = parse(f'{fn}({{a="b"}}[5m])')
            assert isinstance(expr, RangeAgg)

    def test_comparison(self):
        expr = parse('count_over_time({a="b"}[1m]) > 0')
        assert isinstance(expr, BinOp) and expr.op is CmpOp.GT
        assert expr.rhs == Scalar(0.0)

    def test_arithmetic(self):
        expr = parse('rate({a="b"}[1m]) * 60')
        assert isinstance(expr, BinOp)

    def test_scalar_on_left(self):
        expr = parse('2 * rate({a="b"}[1m])')
        assert isinstance(expr, BinOp) and expr.lhs == Scalar(2.0)

    def test_parenthesised(self):
        expr = parse('(count_over_time({a="b"}[1m])) > 1')
        assert isinstance(expr, BinOp)

    def test_chained_binops_left_assoc(self):
        expr = parse('rate({a="b"}[1m]) * 60 > 5')
        assert isinstance(expr, BinOp) and expr.op is CmpOp.GT
        assert isinstance(expr.lhs, BinOp)

    def test_unknown_function_rejected(self):
        with pytest.raises(QueryError):
            parse('quantile_over_time({a="b"}[1m])')

    def test_bare_scalar_rejected(self):
        with pytest.raises(QueryError):
            parse("42")

    def test_missing_range_rejected(self):
        with pytest.raises(QueryError):
            parse('count_over_time({a="b"})')
