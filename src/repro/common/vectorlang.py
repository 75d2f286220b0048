"""The vector language LogQL and PromQL share: lexer, AST and parser.

Above its leaves a LogQL metric query *is* a PromQL query — the paper's
"logs converted to metrics" are the same instant vectors the metric side
alerts on — so everything above a leaf is written once, here:

* the lexer (one flat token stream; context sensitivity, e.g. ``!=``
  being a label matcher inside ``{}`` but a line filter outside, is the
  parser's job) and the :class:`TokenCursor` parsers walk it with —
  TraceQL's span filters lex and walk with the same two;
* the nodes — :class:`VectorAgg` (``sum/min/max/avg/count`` with
  ``by``/``without``), :class:`BinOp` (arithmetic and comparisons,
  vector↔scalar or vector↔vector), :class:`SetExpr` (``and``, ``or``,
  ``unless``), :class:`TopK` and :class:`Scalar`;
* :class:`VectorParser`, which owns the token cursor and every
  production above a leaf, with Prometheus' operator precedence.

A language is its leaves: it subclasses the parser with ``_leaf()`` —
PromQL's selectors, range functions and ``absent``; LogQL's range
aggregations over a log pipeline — and the evaluator
(:class:`repro.common.vector.Evaluation`) with ``leaf()``.  Neither the
parser nor the evaluator is told which language it serves.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Hashable, Union

from repro.common.durations import parse_duration_ns
from repro.common.errors import QueryError
from repro.common.labels import Matcher, MatchOp


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
class Tok(enum.Enum):
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    EQ = "="
    NEQ = "!="
    RE = "=~"
    NRE = "!~"
    PIPE = "|"
    PIPE_EXACT = "|="
    PIPE_MATCH = "|~"
    # TraceQL's connectives and the dot of ``span.<attribute>``.
    AND = "&&"
    OR = "||"
    DOT = "."
    GT = ">"
    GTE = ">="
    LT = "<"
    LTE = "<="
    EQL = "=="
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    STRING = "STRING"
    NUMBER = "NUMBER"
    DURATION = "DURATION"
    IDENT = "IDENT"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    kind: Tok
    text: str
    pos: int


_DURATION_RE = re.compile(r"\d+(?:\.\d+)?(?:ms|s|m|h|d|w|y)(?:\d+(?:ms|s|m|h|d|w|y))*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")

# Multi-char operators first so "=~" never lexes as "=" + "~".
_OPERATORS: list[tuple[str, Tok]] = [
    ("|=", Tok.PIPE_EXACT),
    ("|~", Tok.PIPE_MATCH),
    ("||", Tok.OR),
    ("&&", Tok.AND),
    ("!=", Tok.NEQ),
    ("!~", Tok.NRE),
    ("=~", Tok.RE),
    ("==", Tok.EQL),
    (">=", Tok.GTE),
    ("<=", Tok.LTE),
    ("{", Tok.LBRACE),
    ("}", Tok.RBRACE),
    ("(", Tok.LPAREN),
    (")", Tok.RPAREN),
    ("[", Tok.LBRACKET),
    ("]", Tok.RBRACKET),
    (",", Tok.COMMA),
    (".", Tok.DOT),
    ("=", Tok.EQ),
    ("|", Tok.PIPE),
    (">", Tok.GT),
    ("<", Tok.LT),
    ("+", Tok.ADD),
    ("-", Tok.SUB),
    ("*", Tok.MUL),
    ("/", Tok.DIV),
]

_QUOTES = {'"': '"', "'": "'", "`": "`"}


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into tokens, ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _QUOTES:
            literal, end = _read_string(text, i)
            tokens.append(Token(Tok.STRING, literal, i))
            i = end
            continue
        if ch.isdigit():
            m = _DURATION_RE.match(text, i)
            if m:
                tokens.append(Token(Tok.DURATION, m.group(), i))
                i = m.end()
                continue
            m = _NUMBER_RE.match(text, i)
            if m:
                tokens.append(Token(Tok.NUMBER, m.group(), i))
                i = m.end()
                continue
        matched = False
        for op, kind in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(kind, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token(Tok.IDENT, m.group(), i))
            i = m.end()
            continue
        raise QueryError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(Tok.EOF, "", n))
    return tokens


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a quoted string starting at ``start``; returns (value, end_index).

    Double/single-quoted strings support backslash escapes; backtick strings
    are raw (Go convention, which LogQL inherits).
    """
    quote = text[start]
    raw = quote == "`"
    out: list[str] = []
    i = start + 1
    while i < len(text):
        ch = text[i]
        if ch == quote:
            return "".join(out), i + 1
        if ch == "\\" and not raw:
            if i + 1 >= len(text):
                break
            nxt = text[i + 1]
            escapes = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", quote: quote}
            out.append(escapes.get(nxt, nxt))
            i += 2
            continue
        out.append(ch)
        i += 1
    raise QueryError(f"unterminated string starting at position {start}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
class CmpOp(enum.Enum):
    EQ = "=="
    NEQ = "!="
    GT = ">"
    GTE = ">="
    LT = "<"
    LTE = "<="

    def apply(self, a: float, b: float) -> bool:
        return {
            CmpOp.EQ: a == b,
            CmpOp.NEQ: a != b,
            CmpOp.GT: a > b,
            CmpOp.GTE: a >= b,
            CmpOp.LT: a < b,
            CmpOp.LTE: a <= b,
        }[self]


class ArithOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"

    def apply(self, a: float, b: float) -> float:
        """``a op b`` on two numbers — how the parser folds scalar
        arithmetic; ``x / 0`` is NaN, as it is in the evaluator."""
        if self is ArithOp.ADD:
            return a + b
        if self is ArithOp.SUB:
            return a - b
        if self is ArithOp.MUL:
            return a * b
        return a / b if b != 0 else float("nan")


class SetOp(enum.Enum):
    AND = "and"
    OR = "or"
    UNLESS = "unless"


class VectorOp(enum.Enum):
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    COUNT = "count"


class GroupMode(enum.Enum):
    NONE = "none"
    BY = "by"
    WITHOUT = "without"


def node(cls: type) -> type:
    """Class decorator for an AST node: a frozen dataclass, equal and
    hashed by value, whose hash is worked out once, when it is built.
    The evaluator looks every node up in a table, and the hash dataclasses
    generate walks the whole subtree on every call; built bottom-up out of
    nodes that already know theirs, a node's hash costs its own fields."""
    validate = cls.__dict__.get("__post_init__")

    def __post_init__(self) -> None:
        if validate is not None:
            validate(self)
        object.__setattr__(self, "_hash", by_fields(self))

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    by_fields = cls.__hash__
    cls.__hash__ = lambda self: self._hash
    return cls


@node
class Scalar:
    value: float


@node
class VectorAgg:
    """``sum(...) by (severity, context)`` — vector aggregation."""

    op: VectorOp
    expr: "VectorExpr"
    mode: GroupMode = GroupMode.NONE
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.expr, Scalar):
            raise QueryError(f"{self.op.value}() aggregates a vector, not a scalar")


@node
class TopK:
    """``topk(3, node_temp_celsius)`` / ``bottomk`` — k extreme series."""

    k: int
    expr: "VectorExpr"
    bottom: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError("topk/bottomk need k >= 1")
        if isinstance(self.expr, Scalar):
            raise QueryError("topk/bottomk rank a vector, not a scalar")


@node
class BinOp:
    """Arithmetic or comparison between vector/scalar operands.

    Comparisons *filter* the vector (PromQL semantics without ``bool``);
    arithmetic transforms sample values.  One scalar side follows the
    classic vector↔scalar semantics; two vector sides join one-to-one on
    the full label set minus ``__name__`` (unmatched series drop out,
    duplicates are an error).  Two scalars are not a vector: the parser
    folds their arithmetic into one :class:`Scalar` before it gets here.
    """

    op: CmpOp | ArithOp
    lhs: "VectorExpr | Scalar"
    rhs: "VectorExpr | Scalar"

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Scalar) and isinstance(self.rhs, Scalar):
            raise QueryError("binary op needs at least one vector operand")


@node
class SetExpr:
    """``and`` / ``or`` / ``unless`` between two instant vectors,
    matching on the full label set minus ``__name__``."""

    op: SetOp
    lhs: "VectorExpr"
    rhs: "VectorExpr"

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Scalar) or isinstance(self.rhs, Scalar):
            raise QueryError(f"{self.op.value} requires vector operands")


#: A vector-valued node: an operator above, or a language's leaf — any
#: frozen value, hashable because the evaluator evaluates equal nodes once.
VectorExpr = Union[VectorAgg, BinOp, SetExpr, TopK, Hashable]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
MATCH_TOKENS = {
    Tok.EQ: MatchOp.EQ,
    Tok.NEQ: MatchOp.NEQ,
    Tok.RE: MatchOp.RE,
    Tok.NRE: MatchOp.NRE,
}
CMP_TOKENS = {
    Tok.GT: CmpOp.GT,
    Tok.GTE: CmpOp.GTE,
    Tok.LT: CmpOp.LT,
    Tok.LTE: CmpOp.LTE,
    Tok.EQL: CmpOp.EQ,
    Tok.NEQ: CmpOp.NEQ,
}
#: Binary operators by precedence, loosest first, as in Prometheus; every
#: level is left-associative.  Set operators lex as plain identifiers and
#: are looked up by their text, the rest by token kind.
_PRECEDENCE: tuple[dict, ...] = (
    {"or": SetOp.OR},
    {"and": SetOp.AND, "unless": SetOp.UNLESS},
    CMP_TOKENS,
    {Tok.ADD: ArithOp.ADD, Tok.SUB: ArithOp.SUB},
    {Tok.MUL: ArithOp.MUL, Tok.DIV: ArithOp.DIV},
)
_VECTOR_OPS = {o.value: o for o in VectorOp}
_GROUPINGS = {"by": GroupMode.BY, "without": GroupMode.WITHOUT}


class TokenCursor:
    """One query's tokens and a position in them: what every
    recursive-descent parser over this lexer (the vector languages,
    TraceQL) is built on."""

    def __init__(self, query: str) -> None:
        if not query or not query.strip():
            raise QueryError("empty query")
        self._tokens = tokenize(query)
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[idx]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not Tok.EOF:
            self._pos += 1
        return tok

    def expect(self, kind: Tok) -> Token:
        tok = self.next()
        if tok.kind is not kind:
            raise QueryError(
                f"expected {kind.value!r} but found {tok.text or 'EOF'!r} "
                f"at position {tok.pos}"
            )
        return tok

    def at(self, kind: Tok) -> bool:
        return self.peek().kind is kind


class VectorParser(TokenCursor):
    """Recursive descent over one query's tokens: every production above
    a leaf.  A language supplies :meth:`_leaf`."""

    # -- entry ------------------------------------------------------------
    def parse(self) -> VectorExpr:
        expr = self._whole(self._expr())
        if isinstance(expr, Scalar):
            raise QueryError("bare scalar is not a query")
        return expr

    def _whole(self, expr):
        """``expr``, having checked that it used up the input."""
        tok = self.peek()
        if tok.kind is not Tok.EOF:
            raise QueryError(f"trailing input at position {tok.pos}: {tok.text!r}")
        return expr

    # -- operators --------------------------------------------------------
    def _expr(self, level: int = 0) -> VectorExpr | Scalar:
        if level == len(_PRECEDENCE):
            return self._operand()
        lhs = self._expr(level + 1)
        while True:
            tok = self.peek()
            op = _PRECEDENCE[level].get(tok.text if tok.kind is Tok.IDENT else tok.kind)
            if op is None:
                return lhs
            self.next()
            rhs = self._expr(level + 1)
            if isinstance(op, SetOp):
                lhs = SetExpr(op, lhs, rhs)
            elif not (isinstance(lhs, Scalar) and isinstance(rhs, Scalar)):
                lhs = BinOp(op, lhs, rhs)
            elif isinstance(op, ArithOp):
                lhs = Scalar(op.apply(lhs.value, rhs.value))
            else:
                # Without `bool` a comparison filters, and two numbers
                # are nothing to filter.
                raise QueryError(
                    f"comparison between two scalars at position {tok.pos}"
                )

    def _operand(self) -> VectorExpr | Scalar:
        tok = self.peek()
        if tok.kind in (Tok.ADD, Tok.SUB) and self.peek(1).kind is Tok.NUMBER:
            self.next()  # a sign belongs to the number after it
            value = float(self.next().text)
            return Scalar(-value if tok.kind is Tok.SUB else value)
        if tok.kind is Tok.NUMBER:
            return Scalar(float(self.next().text))
        if tok.kind is Tok.LPAREN:
            self.next()
            inner = self._expr()
            self.expect(Tok.RPAREN)
            return inner
        if tok.kind is Tok.IDENT and tok.text in _VECTOR_OPS:
            return self._vector_agg()
        if tok.kind is Tok.IDENT and tok.text in ("topk", "bottomk"):
            return self._topk()
        return self._leaf()

    def _leaf(self) -> VectorExpr:
        """The language's own vector-valued productions, the cursor on
        their first token."""
        raise NotImplementedError

    def _vector_agg(self) -> VectorAgg:
        op = _VECTOR_OPS[self.next().text]
        mode, labels = self._grouping()
        self.expect(Tok.LPAREN)
        inner = self._expr()
        self.expect(Tok.RPAREN)
        if mode is GroupMode.NONE:
            mode, labels = self._grouping()
        return VectorAgg(op, inner, mode, labels)

    def _grouping(self) -> tuple[GroupMode, tuple[str, ...]]:
        """A ``by (...)``/``without (...)`` clause, if one starts here."""
        if not (self.at(Tok.IDENT) and self.peek().text in _GROUPINGS):
            return GroupMode.NONE, ()
        mode = _GROUPINGS[self.next().text]
        self.expect(Tok.LPAREN)
        labels = self._listed(Tok.RPAREN, lambda: self.expect(Tok.IDENT).text)
        return mode, tuple(labels)

    def _topk(self) -> TopK:
        bottom = self.next().text == "bottomk"
        self.expect(Tok.LPAREN)
        k = int(float(self.expect(Tok.NUMBER).text))
        self.expect(Tok.COMMA)
        inner = self._expr()
        self.expect(Tok.RPAREN)
        return TopK(k, inner, bottom)

    # -- what leaves are made of ------------------------------------------
    def _matchers(self) -> list[Matcher]:
        """``{name op "value", ...}`` — a selector's matcher block."""
        self.expect(Tok.LBRACE)
        return self._listed(Tok.RBRACE, self._matcher)

    def _matcher(self) -> Matcher:
        name = self.expect(Tok.IDENT).text
        op_tok = self.next()
        if op_tok.kind not in MATCH_TOKENS:
            raise QueryError(
                f"expected matcher operator at position {op_tok.pos}, "
                f"found {op_tok.text!r}"
            )
        return Matcher(name, MATCH_TOKENS[op_tok.kind], self.expect(Tok.STRING).text)

    def _listed(self, close: Tok, item) -> list:
        """``item, item, ...`` (or nothing) up to and including ``close``."""
        items = []
        if not self.at(close):
            items.append(item())
            while self.at(Tok.COMMA):
                self.next()
                items.append(item())
        self.expect(close)
        return items

    def _range_ns(self) -> int:
        """``[5m]`` — a range function's window."""
        self.expect(Tok.LBRACKET)
        range_ns = parse_duration_ns(self.expect(Tok.DURATION).text)
        self.expect(Tok.RBRACKET)
        return range_ns
