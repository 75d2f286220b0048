"""LogQL recursive-descent parser.

Grammar (the implemented subset)::

    expr          := log_pipeline | vector_expr
    log_pipeline  := selector stage*
    selector      := "{" matcher ("," matcher)* "}"
    matcher       := IDENT ("=" | "!=" | "=~" | "!~") STRING
    stage         := line_filter | "|" parser | "|" label_filter
    line_filter   := ("|=" | "!=" | "|~" | "!~") STRING
    parser        := "json" | "logfmt" | "pattern" STRING
    label_filter  := IDENT (("=" | "!=" | "=~" | "!~") STRING
                            | ("==" | "!=" | ">" | ">=" | "<" | "<=") NUMBER)
    range_agg     := FUNC "(" log_pipeline "[" DURATION "]" ")"

``vector_expr`` — aggregations, binary and set operators with their
precedence, ``topk``, parentheses, scalars — is
:class:`repro.common.vectorlang.VectorParser`'s, shared with PromQL; its
one leaf here is ``range_agg``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.common.errors import QueryError
from repro.common.labels import Matcher
from repro.common.vectorlang import CMP_TOKENS, MATCH_TOKENS, CmpOp, Tok, VectorParser
from repro.loki.logql.ast import (
    Expr,
    LabelFilter,
    LineFilter,
    LineFilterOp,
    LogPipeline,
    ParserKind,
    ParserStage,
    PatternTemplate,
    LabelFormatStage,
    LineFormatStage,
    RangeAgg,
    RangeFunc,
    UnwrapStage,
)

_RANGE_FUNCS = {f.value: f for f in RangeFunc}
_LINE_FILTER_TOKENS = {
    Tok.PIPE_EXACT: LineFilterOp.CONTAINS,
    Tok.NEQ: LineFilterOp.NOT_CONTAINS,
    Tok.PIPE_MATCH: LineFilterOp.MATCHES,
    Tok.NRE: LineFilterOp.NOT_MATCHES,
}


class _Parser(VectorParser):
    def parse(self) -> Expr:
        # A log query is only ever the whole query.
        if self.at(Tok.LBRACE):
            return self._whole(self._log_pipeline())
        return super().parse()

    # -- log pipelines ------------------------------------------------------
    def _log_pipeline(self) -> LogPipeline:
        matchers = self._matchers()
        stages: list = []
        while True:
            tok = self.peek()
            if tok.kind in (Tok.PIPE_EXACT, Tok.PIPE_MATCH, Tok.NEQ, Tok.NRE):
                self.next()
                needle = self.expect(Tok.STRING).text
                stages.append(LineFilter(_LINE_FILTER_TOKENS[tok.kind], needle))
            elif tok.kind is Tok.PIPE:
                self.next()
                stages.append(self._pipe_stage())
            else:
                break
        return LogPipeline(tuple(matchers), tuple(stages))

    def _pipe_stage(self):
        tok = self.expect(Tok.IDENT)
        word = tok.text
        if word == "json":
            return ParserStage(ParserKind.JSON)
        if word == "logfmt":
            return ParserStage(ParserKind.LOGFMT)
        if word == "pattern":
            template = self.expect(Tok.STRING).text
            PatternTemplate.compile(template)  # validate eagerly
            return ParserStage(ParserKind.PATTERN, template)
        if word == "unwrap":
            return UnwrapStage(self.expect(Tok.IDENT).text)
        if word == "line_format":
            return LineFormatStage(self.expect(Tok.STRING).text)
        if word == "label_format":
            dst = self.expect(Tok.IDENT).text
            self.expect(Tok.EQ)
            src = self.expect(Tok.IDENT).text
            return LabelFormatStage(dst, src)
        # Otherwise it is a label filter: IDENT op (STRING | NUMBER).
        op_tok = self.next()
        if op_tok.kind in MATCH_TOKENS and self.at(Tok.STRING):
            value = self.expect(Tok.STRING).text
            return LabelFilter(matcher=Matcher(word, MATCH_TOKENS[op_tok.kind], value))
        if op_tok.kind in CMP_TOKENS or op_tok.kind is Tok.EQ:
            num_tok = self.next()
            if num_tok.kind not in (Tok.NUMBER, Tok.DURATION):
                raise QueryError(
                    f"expected number after comparison at position {num_tok.pos}"
                )
            cmp = CMP_TOKENS.get(op_tok.kind, CmpOp.EQ)
            return LabelFilter(name=word, cmp=cmp, number=float(num_tok.text))
        raise QueryError(
            f"cannot parse pipeline stage near position {op_tok.pos} "
            f"({word!r} {op_tok.text!r})"
        )

    # -- the metric leaf ----------------------------------------------------
    def _leaf(self) -> RangeAgg:
        tok = self.peek()
        if tok.kind is not Tok.IDENT:
            raise QueryError(
                f"expected a function or aggregation at position {tok.pos}, "
                f"found {tok.text or 'EOF'!r}"
            )
        if tok.text not in _RANGE_FUNCS:
            raise QueryError(f"unknown function {tok.text!r} at position {tok.pos}")
        func = _RANGE_FUNCS[self.next().text]
        self.expect(Tok.LPAREN)
        pipeline = self._log_pipeline()
        range_ns = self._range_ns()
        self.expect(Tok.RPAREN)
        return RangeAgg(func, pipeline, range_ns)


@lru_cache(maxsize=1 << 10)
def parse(query: str) -> Expr:
    """Parse a LogQL query into its AST. Raises :class:`QueryError`.

    Once per text: the planner, the frontend and the engine all parse the
    query they are handed, and a dashboard or rule asks the same texts
    again and again.  The last 1,024 texts are kept, as many as
    ``LogQLEngine`` keeps compiled pipelines; nodes are frozen values, so
    every caller may share one.  A text that fails is not kept."""
    return _Parser(query).parse()
