"""TraceQL recursive-descent parser.

Grammar (|| binds looser than &&, parentheses override)::

    query     := "{" or_expr "}"
    or_expr   := and_expr ( "||" and_expr )*
    and_expr  := predicate ( "&&" predicate )*
    predicate := "(" or_expr ")"
               | "span" "." IDENT op value
               | "name" op value
               | "duration" cmp_op (DURATION | NUMBER)
    op        := "=" | "!=" | "=~" | "!~"
    cmp_op    := "=" | "!=" | ">" | ">=" | "<" | "<="
"""

from __future__ import annotations

from repro.common.durations import parse_duration_ns
from repro.common.errors import QueryError
from repro.common.vectorlang import Tok, TokenCursor
from repro.tempo.traceql.ast import (
    BinaryOp,
    BooleanExpr,
    DurationPredicate,
    FieldPredicate,
    PredicateExpr,
    SpanFilter,
)

_OP_BY_TOK = {
    Tok.EQ: BinaryOp.EQ,
    Tok.NEQ: BinaryOp.NEQ,
    Tok.RE: BinaryOp.RE,
    Tok.NRE: BinaryOp.NRE,
    Tok.GT: BinaryOp.GT,
    Tok.GTE: BinaryOp.GTE,
    Tok.LT: BinaryOp.LT,
    Tok.LTE: BinaryOp.LTE,
}


def parse_query(text: str) -> SpanFilter:
    """Parse a TraceQL query string into a :class:`SpanFilter`."""
    parser = _Parser(text)
    parser.expect(Tok.LBRACE)
    expr = parser.parse_or()
    parser.expect(Tok.RBRACE)
    parser.expect(Tok.EOF)
    return SpanFilter(expr)


class _Parser(TokenCursor):
    def parse_or(self) -> PredicateExpr:
        left = self.parse_and()
        while self.at(Tok.OR):
            self.next()
            right = self.parse_and()
            left = BooleanExpr(left, right, conjunction=False)
        return left

    def parse_and(self) -> PredicateExpr:
        left = self.parse_predicate()
        while self.at(Tok.AND):
            self.next()
            right = self.parse_predicate()
            left = BooleanExpr(left, right, conjunction=True)
        return left

    def parse_predicate(self) -> PredicateExpr:
        if self.at(Tok.LPAREN):
            self.next()
            expr = self.parse_or()
            self.expect(Tok.RPAREN)
            return expr
        tok = self.expect(Tok.IDENT)
        if tok.text == "span":
            self.expect(Tok.DOT)
            field = self.expect(Tok.IDENT).text
            return self._field_predicate(field)
        if tok.text == "name":
            return self._field_predicate("name")
        if tok.text == "duration":
            return self._duration_predicate()
        raise QueryError(
            f"unknown field {tok.text!r} at position {tok.pos}; "
            "expected 'span.<field>', 'name' or 'duration'"
        )

    def _operator(self) -> BinaryOp:
        tok = self.next()
        op = _OP_BY_TOK.get(tok.kind)
        if op is None:
            raise QueryError(f"expected an operator at position {tok.pos}")
        return op

    def _field_predicate(self, field: str) -> FieldPredicate:
        op = self._operator()
        tok = self.peek()
        if tok.kind not in (Tok.STRING, Tok.NUMBER, Tok.DURATION, Tok.IDENT):
            raise QueryError(f"expected a value at position {tok.pos}")
        self.next()
        return FieldPredicate(field, op, tok.text)

    def _duration_predicate(self) -> DurationPredicate:
        op = self._operator()
        tok = self.next()
        if tok.kind is Tok.DURATION:
            threshold = parse_duration_ns(tok.text)
        elif tok.kind is Tok.NUMBER:
            # A bare number is seconds, like Tempo accepts.
            threshold = int(float(tok.text) * 1_000_000_000)
        else:
            raise QueryError(
                f"duration needs a duration literal at position {tok.pos}"
            )
        return DurationPredicate(op, threshold)
