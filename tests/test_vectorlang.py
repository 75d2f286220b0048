"""The vector language LogQL and PromQL share, through both of them.

``repro.common.vectorlang.VectorParser`` owns every production above a
leaf, so each grammar rule is checked once here and run through both
languages: the same template, with a PromQL selector or a LogQL range
aggregation in each leaf position, must give the same tree around those
leaves.  The value tests pin that the tree is also what gets evaluated.
"""

import math
import sys

import pytest

from repro.common.errors import QueryError
from repro.common.labels import LabelSet
from repro.common.simclock import minutes, seconds
from repro.common.vectorlang import (
    ArithOp,
    BinOp,
    CmpOp,
    GroupMode,
    Scalar,
    SetExpr,
    SetOp,
    Tok,
    TopK,
    VectorAgg,
    VectorOp,
    tokenize,
)
from repro.loki.logql.engine import LogQLEngine
from repro.loki.logql.parser import parse
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore
from repro.tsdb.promql import PromQLEngine, parse_promql
from repro.tsdb.storage import TimeSeriesStore
from tests.counting import counted

#: Per language: its parser and the text of three distinct leaves.
LANGUAGES = {
    "promql": (parse_promql, {"a": "a", "b": 'b{x="1"}', "c": "rate(c[5m])"}),
    "logql": (
        parse,
        {
            "a": 'count_over_time({s="a"}[1m])',
            "b": 'rate({s="b"} |= "x" [5m])',
            "c": 'bytes_over_time({s="c"} | json [1m])',
        },
    ),
}

ADD, SUB, MUL, DIV = ArithOp.ADD, ArithOp.SUB, ArithOp.MUL, ArithOp.DIV
GT, LT = CmpOp.GT, CmpOp.LT
AND, OR, UNLESS = SetOp.AND, SetOp.OR, SetOp.UNLESS


@pytest.fixture(params=sorted(LANGUAGES))
def language(request):
    """``tree(template)`` parses the template with the language's leaves
    filled in; ``a``/``b``/``c`` are those leaves parsed on their own."""
    parser, leaves = LANGUAGES[request.param]

    class Language:
        a, b, c = (parser(leaves[name]) for name in "abc")

        @staticmethod
        def tree(template: str):
            return parser(template.format(**leaves))

    return Language


class TestPrecedence:
    """``* /`` over ``+ -`` over comparisons over ``and unless`` over
    ``or``; left-associative within a level."""

    def test_multiplication_binds_tighter_than_addition(self, language):
        a, b, c = language.a, language.b, language.c
        assert language.tree("{a} + {b} * {c}") == BinOp(ADD, a, BinOp(MUL, b, c))
        assert language.tree("{a} * {b} + {c}") == BinOp(ADD, BinOp(MUL, a, b), c)
        assert language.tree("{a} - {b} / {c}") == BinOp(SUB, a, BinOp(DIV, b, c))
        assert language.tree("1 - {a} / {b}") == BinOp(SUB, Scalar(1.0), BinOp(DIV, a, b))
        assert language.tree("2 - {a} * 3") == BinOp(SUB, Scalar(2.0), BinOp(MUL, a, Scalar(3.0)))

    def test_arithmetic_binds_tighter_than_comparison(self, language):
        a, b, c = language.a, language.b, language.c
        assert language.tree("{a} > {b} + {c}") == BinOp(GT, a, BinOp(ADD, b, c))
        assert language.tree("{a} * 60 > 5") == BinOp(GT, BinOp(MUL, a, Scalar(60.0)), Scalar(5.0))
        assert language.tree("5 < {a} * 60") == BinOp(LT, Scalar(5.0), BinOp(MUL, a, Scalar(60.0)))

    def test_one_level_is_left_associative(self, language):
        a, b, c = language.a, language.b, language.c
        assert language.tree("{a} - {b} - {c}") == BinOp(SUB, BinOp(SUB, a, b), c)
        assert language.tree("{a} / {b} * {c}") == BinOp(MUL, BinOp(DIV, a, b), c)
        assert language.tree("{a} > {b} < {c}") == BinOp(LT, BinOp(GT, a, b), c)

    def test_set_operators_bind_loosest_and_or_below_and_unless(self, language):
        a, b, c = language.a, language.b, language.c
        assert language.tree("{a} > 1 and {b} > 2") == SetExpr(
            AND, BinOp(GT, a, Scalar(1.0)), BinOp(GT, b, Scalar(2.0))
        )
        assert language.tree("{a} or {b} and {c}") == SetExpr(OR, a, SetExpr(AND, b, c))
        assert language.tree("{a} and {b} or {c}") == SetExpr(OR, SetExpr(AND, a, b), c)
        assert language.tree("{a} or {b} unless {c}") == SetExpr(OR, a, SetExpr(UNLESS, b, c))
        assert language.tree("{a} and {b} unless {c}") == SetExpr(UNLESS, SetExpr(AND, a, b), c)

    def test_parentheses_override(self, language):
        a, b, c = language.a, language.b, language.c
        assert language.tree("({a} + {b}) * {c}") == BinOp(MUL, BinOp(ADD, a, b), c)
        assert language.tree("({a} or {b}) and {c}") == SetExpr(AND, SetExpr(OR, a, b), c)
        # The SLO rules' shape: fully parenthesised, so it never moved.
        assert language.tree("({a} - {b}) / ({c} > 0) / 0.5") == BinOp(
            DIV, BinOp(DIV, BinOp(SUB, a, b), BinOp(GT, c, Scalar(0.0))), Scalar(0.5)
        )


class TestScalars:
    def test_scalar_arithmetic_folds_at_parse_time(self, language):
        a = language.a
        assert language.tree("{a} + 1 * 2") == BinOp(ADD, a, Scalar(2.0))
        assert language.tree("{a} + (1 * 2)") == BinOp(ADD, a, Scalar(2.0))
        assert language.tree("(2 + 3) * 4 / {a}") == BinOp(DIV, Scalar(20.0), a)
        folded = language.tree("{a} * (1 / 0)").rhs
        assert math.isnan(folded.value)  # x / 0 is NaN here as in the evaluator

    def test_signed_number_where_a_scalar_operand_is_expected(self, language):
        a = language.a
        assert language.tree("{a} > -1") == BinOp(GT, a, Scalar(-1.0))
        assert language.tree("{a} * -2.5") == BinOp(MUL, a, Scalar(-2.5))
        assert language.tree("-1 * {a}") == BinOp(MUL, Scalar(-1.0), a)
        assert language.tree("+3 + {a}") == BinOp(ADD, Scalar(3.0), a)
        assert language.tree("{a} - -1") == BinOp(SUB, a, Scalar(-1.0))
        assert language.tree("{a} -1") == BinOp(SUB, a, Scalar(1.0))
        assert language.tree("sum({a}) > -1") == BinOp(
            GT, VectorAgg(VectorOp.SUM, a), Scalar(-1.0)
        )

    @pytest.mark.parametrize(
        "template",
        [
            "42",
            "1 + 2",
            "(1 * 2)",
            "1 > 2",  # no `bool`: nothing to filter
            "{a} + (1 > 2)",
            "sum(5)",
            "topk(2, 5)",
            "{a} and 1",
            "1 or {a}",
            "-{a}",  # a sign belongs to a number
            "{a} > - 1 2",
        ],
    )
    def test_a_scalar_is_not_a_vector(self, language, template):
        with pytest.raises(QueryError):
            language.tree(template)


class TestSharedProductions:
    def test_aggregation_grouping_before_or_after(self, language):
        a = language.a
        want = VectorAgg(VectorOp.MAX, a, GroupMode.BY, ("x", "y"))
        assert language.tree("max by (x, y) ({a})") == want
        assert language.tree("max({a}) by (x, y)") == want
        assert language.tree("avg without () ({a})") == VectorAgg(
            VectorOp.AVG, a, GroupMode.WITHOUT, ()
        )
        assert language.tree("count({a} / {b})").expr == BinOp(DIV, a, language.b)

    def test_topk_and_bottomk(self, language):
        a = language.a
        assert language.tree("topk(3, {a})") == TopK(3, a)
        assert language.tree("bottomk(1, sum by (x) ({a}))") == TopK(
            1, VectorAgg(VectorOp.SUM, a, GroupMode.BY, ("x",)), bottom=True
        )
        with pytest.raises(QueryError):
            language.tree("topk(0, {a})")

    @pytest.mark.parametrize(
        "template", ["", "sum(", "({a}", "{a} +", "{a} {b}", "sum by x ({a})", "topk({a})"]
    )
    def test_malformed_input_is_a_query_error(self, language, template):
        with pytest.raises(QueryError):
            language.tree(template)


class TestParseOnce:
    """Both parsers keep the tree of each text they parsed, so the
    planner, the frontend and the engine, each handed the same text,
    tokenise it once between them.  A text that fails is never kept."""

    @pytest.mark.parametrize("name", sorted(LANGUAGES))
    def test_one_text_is_one_parse_and_one_tree(self, name):
        parser, leaves = LANGUAGES[name]
        module = sys.modules[parser.__module__]
        text = "sum by (x) ({b}) / 7".format(**leaves)
        parser.cache_clear()
        with counted(module, "_Parser") as built:
            first = parser(text)
            assert parser(text) is first
            assert parser(text + " ") == first and parser(text + " ") is not first
        assert built.call_count == 2

    @pytest.mark.parametrize("name", sorted(LANGUAGES))
    def test_a_bad_text_raises_on_every_call(self, name):
        parser, _leaves = LANGUAGES[name]
        module = sys.modules[parser.__module__]
        with counted(module, "_Parser") as built:
            for _ in range(3):
                with pytest.raises(QueryError):
                    parser("sum(")
        assert built.call_count == 3


class TestOneLexer:
    """TraceQL lexes with this lexer too; its three tokens (``&&``,
    ``||``, ``.``) change nothing the vector languages lexed before and
    nothing they rejected."""

    def test_pipe_forms_still_lex_apart_next_to_the_double_pipe(self):
        kinds = [t.kind for t in tokenize('{a="b"} |= "x" |~ "y" | json || c && d')]
        assert kinds == [
            Tok.LBRACE, Tok.IDENT, Tok.EQ, Tok.STRING, Tok.RBRACE,
            Tok.PIPE_EXACT, Tok.STRING, Tok.PIPE_MATCH, Tok.STRING,
            Tok.PIPE, Tok.IDENT, Tok.OR, Tok.IDENT, Tok.AND, Tok.IDENT, Tok.EOF,
        ]
        assert [t.kind for t in tokenize("|||=")] == [Tok.OR, Tok.PIPE_EXACT, Tok.EOF]

    def test_a_fraction_is_still_one_number_next_to_the_dot(self):
        tokens = tokenize("1.5 1.5m 2e3 a.b 7.x")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (Tok.NUMBER, "1.5"), (Tok.DURATION, "1.5m"), (Tok.NUMBER, "2e3"),
            (Tok.IDENT, "a"), (Tok.DOT, "."), (Tok.IDENT, "b"),
            (Tok.NUMBER, "7"), (Tok.DOT, "."), (Tok.IDENT, "x"),
        ]

    @pytest.mark.parametrize(
        "template",
        [
            "{a} && {b}", "{a} || {b}", "{a} . {b}", "{a}.x", ".5 * {a}", "{a} * .5",
            "{a} > 1.", "sum.by (x) ({a})", "sum by (x.y) ({a})", "topk(3., {a})",
            "{a} &&", "|| {a}", "({a} || {b})", "sum({a} && {b})",
        ],
    )
    def test_what_was_a_bad_character_is_still_a_query_error(self, language, template):
        with pytest.raises(QueryError):
            language.tree(template)

    @pytest.mark.parametrize(
        "query",
        [
            '{s="a"} || "x"', '{s="a"} && {s="b"}', '{s.t="a"}', '{s="a"} | json || x',
            '{s="a"} | json | level.x="error"', '{s="a"} |= "x" . "y"',
            'count_over_time({s="a"} || "x" [1m])', 'rate({s="a"}[1m]) by (s.t)',
        ],
    )
    def test_logql_pipelines_reject_the_new_tokens(self, query):
        with pytest.raises(QueryError):
            parse(query)

    @pytest.mark.parametrize(
        "query", ["a.b", 'a{x.y="1"}', "a && b", "a || b", "rate(a.b[5m])", "absent(a.b)"]
    )
    def test_promql_selectors_reject_the_new_tokens(self, query):
        with pytest.raises(QueryError):
            parse_promql(query)


# ----------------------------------------------------------------------
# The tree is what gets evaluated
# ----------------------------------------------------------------------
class TestValues:
    def promql(self):
        store = TimeSeriesStore()
        for name, value in (("m", 10.0), ("good", 90.0), ("total", 100.0)):
            store.ingest(name, {"i": "1"}, value, 0)
        return PromQLEngine(store)

    def value(self, engine, query: str, t: int = 0) -> float:
        (sample,) = engine.query_instant(query, t)
        return sample.value

    def test_promql_precedence_on_a_value(self):
        engine = self.promql()
        assert self.value(engine, "m + 1 * 2") == 12.0  # not (m + 1) * 2 = 22
        # 1 - (good / total), not (1 - good) / total = -0.89
        assert self.value(engine, "1 - good / total") == pytest.approx(0.1)
        assert self.value(engine, "total - good - m") == 0.0
        assert engine.query_instant("m > 5 + 6", 0) == []  # 10 > 11, not (10 > 5) + 6
        # m or (good and nope) = m, not (m or good) and nope = nothing.
        (sample,) = engine.query_instant("m or good and nope", 0)
        assert sample.labels["__name__"] == "m"

    def test_promql_signed_literals_on_a_value(self):
        engine = self.promql()
        assert self.value(engine, "m > -1") == 10.0
        assert self.value(engine, "m * -2") == -20.0
        assert self.value(engine, "m - -1") == 11.0

    def logql(self):
        store = LokiStore()
        for host, lines in (("n0", ["error a", "ok", "ok", "ok"]), ("n1", ["error b", "error c"])):
            store.push_stream(
                LabelSet({"app": "x", "host": host}),
                [LogEntry(int(seconds(i + 1)), line) for i, line in enumerate(lines)],
            )
        return LogQLEngine(store)

    def test_logql_precedence_and_signs_on_a_value(self):
        engine, t = self.logql(), int(minutes(1))
        total = 'sum(count_over_time({app="x"}[1m]))'
        assert self.value(engine, total, t) == 6.0
        assert self.value(engine, f"2 - {total} * 3", t) == -16.0  # not (2 - 6) * 3 = -12
        assert self.value(engine, f"{total} + 1 * 2", t) == 8.0
        assert self.value(engine, f"{total} > -1", t) == 6.0

    def test_logql_admits_the_whole_vector_layer(self):
        engine, t = self.logql(), int(minutes(1))
        errors = 'count_over_time({app="x"} |= "error" [1m])'
        total = 'count_over_time({app="x"}[1m])'
        # The error ratio real LogQL is used for: two leaves, one join.
        assert self.value(engine, f"sum({errors}) / sum({total})", t) == 0.5
        by_host = {
            s.labels["host"]: s.value
            for s in engine.query_instant(f"{errors} / {total}", t)
        }
        assert by_host == {"n0": 0.25, "n1": 1.0}

        def hosts(query):
            return [s.labels["host"] for s in engine.query_instant(query, t)]

        assert hosts(f"{total} unless {errors} > 1") == ["n0"]
        assert hosts(f"{total} > 3 or {errors} > 1") == ["n0", "n1"]
        assert hosts(f"{total} > 3 and {errors} > 1") == []
        assert hosts(f"topk(1, {errors})") == ["n1"]
        assert hosts(f"bottomk(2, {total})") == ["n1", "n0"]  # rank order
        (series,) = engine.query_range(
            f"sum({errors}) / sum({total})", t, t + int(minutes(1)), int(minutes(1))
        )
        assert series.points == ((t, 0.5),)
