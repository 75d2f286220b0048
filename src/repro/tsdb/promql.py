"""PromQL/MetricsQL subset for the TSDB.

vmalert and Grafana query VictoriaMetrics with PromQL; this module
implements the subset the monitoring rules need:

* instant selectors — ``node_temp_celsius{cluster="perlmutter"}`` with
  the standard 5-minute staleness lookback;
* range functions — ``rate``, ``increase``, ``delta``, ``avg_over_time``,
  ``min_over_time``, ``max_over_time``, ``sum_over_time``,
  ``count_over_time``, ``last_over_time`` over ``[5m]`` windows;
* vector aggregation — ``sum/min/max/avg/count`` with ``by``/``without``;
* vector↔scalar comparisons (filtering) and arithmetic;
* vector↔vector arithmetic and comparisons with one-to-one matching on
  the full label set (ignoring ``__name__``), as SLO burn-rate ratios
  need (``good_rate / total_rate``);
* the logical set operators ``and``, ``or`` and ``unless`` at the
  lowest precedence, so multi-window burn alerts can require both
  windows at once (``burn_5m > 14.4 and burn_1h > 14.4``).

The lexer is shared with LogQL (the grammars overlap exactly where we
need them to).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterable, Protocol, Union

import numpy as np

from repro.common.durations import parse_duration_ns
from repro.common.errors import QueryError
from repro.common.labels import (
    EMPTY_LABELS,
    METRIC_NAME_LABEL,
    LabelSet,
    Matcher,
    MatchOp,
)
from repro.common.simclock import NANOS_PER_SECOND, minutes
from repro.common.vector import Sample, Series
from repro.loki.logql.ast import ArithOp, CmpOp, GroupMode, Scalar, VectorOp
from repro.loki.logql.lexer import Tok, Token, tokenize

#: Prometheus staleness lookback for instant selectors.
DEFAULT_LOOKBACK_NS = minutes(5)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VectorSelector:
    matchers: tuple[Matcher, ...]

    def __post_init__(self) -> None:
        if not self.matchers:
            raise QueryError("selector needs at least one matcher")


class PromRangeFunc(enum.Enum):
    RATE = "rate"
    INCREASE = "increase"
    DELTA = "delta"
    AVG_OVER_TIME = "avg_over_time"
    MIN_OVER_TIME = "min_over_time"
    MAX_OVER_TIME = "max_over_time"
    SUM_OVER_TIME = "sum_over_time"
    COUNT_OVER_TIME = "count_over_time"
    LAST_OVER_TIME = "last_over_time"


@dataclass(frozen=True)
class PromRangeAgg:
    func: PromRangeFunc
    selector: VectorSelector
    range_ns: int

    def __post_init__(self) -> None:
        if self.range_ns <= 0:
            raise QueryError("range window must be positive")


@dataclass(frozen=True)
class PromVectorAgg:
    op: VectorOp
    expr: "PromExpr"
    mode: GroupMode = GroupMode.NONE
    labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class PromAbsent:
    """``absent(node_up{job="node"})`` — 1 when the selector returns
    nothing.  The alerting primitive for *silent* failures: a sampler
    that stops reporting never trips a threshold rule, but it does trip
    ``absent(...)``."""

    selector: VectorSelector


@dataclass(frozen=True)
class PromTopK:
    """``topk(3, node_temp_celsius)`` / ``bottomk`` — k extreme series."""

    k: int
    expr: "PromExpr"
    bottom: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError("topk/bottomk need k >= 1")


@dataclass(frozen=True)
class PromBinOp:
    """Arithmetic or comparison between vector/scalar operands.

    One scalar side follows the classic vector↔scalar semantics; two
    vector sides join one-to-one on the full label set minus
    ``__name__`` (unmatched series drop out, duplicates are an error).
    Scalar-only arithmetic is rejected — a bare number is not a vector.
    """

    op: CmpOp | ArithOp
    lhs: "PromExpr | Scalar"
    rhs: "PromExpr | Scalar"

    def __post_init__(self) -> None:
        scalar_sides = isinstance(self.lhs, Scalar) + isinstance(self.rhs, Scalar)
        if scalar_sides == 2:
            raise QueryError("binary op needs at least one vector operand")


class SetOp(enum.Enum):
    AND = "and"
    OR = "or"
    UNLESS = "unless"


@dataclass(frozen=True)
class PromSetOp:
    """``and`` / ``or`` / ``unless`` between two instant vectors,
    matching on the full label set minus ``__name__``."""

    op: SetOp
    lhs: "PromExpr"
    rhs: "PromExpr"

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Scalar) or isinstance(self.rhs, Scalar):
            raise QueryError(f"{self.op.value} requires vector operands")


PromExpr = Union[
    VectorSelector,
    PromRangeAgg,
    PromVectorAgg,
    PromBinOp,
    PromSetOp,
    PromTopK,
    PromAbsent,
]

_RANGE_FUNCS = {f.value: f for f in PromRangeFunc}
_VECTOR_OPS = {o.value: o for o in VectorOp}
_CMP_TOKENS = {
    Tok.GT: CmpOp.GT,
    Tok.GTE: CmpOp.GTE,
    Tok.LT: CmpOp.LT,
    Tok.LTE: CmpOp.LTE,
    Tok.EQL: CmpOp.EQ,
    Tok.NEQ: CmpOp.NEQ,
}
_ARITH_TOKENS = {
    Tok.ADD: ArithOp.ADD,
    Tok.SUB: ArithOp.SUB,
    Tok.MUL: ArithOp.MUL,
    Tok.DIV: ArithOp.DIV,
}
_MATCH_TOKENS = {
    Tok.EQ: MatchOp.EQ,
    Tok.NEQ: MatchOp.NEQ,
    Tok.RE: MatchOp.RE,
    Tok.NRE: MatchOp.NRE,
}
# Set operators lex as plain identifiers (the lexer is LogQL's).
_SET_WORDS = {o.value: o for o in SetOp}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
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

    def parse(self) -> PromExpr:
        expr = self._expr()
        tok = self.peek()
        if tok.kind is not Tok.EOF:
            raise QueryError(f"trailing input at position {tok.pos}: {tok.text!r}")
        return expr

    def _expr(self) -> PromExpr:
        # Set operators bind loosest, as in Prometheus: each side of an
        # ``and``/``or``/``unless`` is a full comparison/arithmetic chain.
        lhs = self._binop_expr()
        while self.at(Tok.IDENT) and self.peek().text in _SET_WORDS:
            op = _SET_WORDS[self.next().text]
            lhs = PromSetOp(op, lhs, self._binop_expr())
        return lhs

    def _binop_expr(self) -> PromExpr:
        lhs = self._atom()
        while True:
            tok = self.peek()
            if tok.kind in _CMP_TOKENS:
                self.next()
                lhs = PromBinOp(_CMP_TOKENS[tok.kind], lhs, self._scalar_or_atom())
            elif tok.kind in _ARITH_TOKENS:
                self.next()
                lhs = PromBinOp(_ARITH_TOKENS[tok.kind], lhs, self._scalar_or_atom())
            else:
                return lhs

    def _scalar_or_atom(self):
        if self.at(Tok.NUMBER):
            return Scalar(float(self.next().text))
        return self._atom()

    def _atom(self) -> PromExpr:
        tok = self.peek()
        if tok.kind is Tok.NUMBER:
            scalar = Scalar(float(self.next().text))
            op_tok = self.next()
            if op_tok.kind in _CMP_TOKENS:
                return PromBinOp(_CMP_TOKENS[op_tok.kind], scalar, self._atom())
            if op_tok.kind in _ARITH_TOKENS:
                return PromBinOp(_ARITH_TOKENS[op_tok.kind], scalar, self._atom())
            raise QueryError(f"bare scalar is not a query (pos {tok.pos})")
        if tok.kind is Tok.LPAREN:
            self.next()
            inner = self._expr()
            self.expect(Tok.RPAREN)
            return inner
        if tok.kind is Tok.LBRACE:
            return VectorSelector(tuple(self._matchers()))
        if tok.kind is not Tok.IDENT:
            raise QueryError(f"unexpected token {tok.text!r} at position {tok.pos}")
        word = tok.text
        if word in _VECTOR_OPS:
            return self._vector_agg()
        if word in _RANGE_FUNCS:
            return self._range_agg()
        if word == "absent":
            self.next()
            self.expect(Tok.LPAREN)
            tok2 = self.peek()
            if tok2.kind is Tok.IDENT:
                name = self.next().text
                matchers = [Matcher(METRIC_NAME_LABEL, MatchOp.EQ, name)]
                if self.at(Tok.LBRACE):
                    matchers.extend(self._matchers())
            elif tok2.kind is Tok.LBRACE:
                matchers = self._matchers()
            else:
                raise QueryError("absent() takes a vector selector")
            self.expect(Tok.RPAREN)
            return PromAbsent(VectorSelector(tuple(matchers)))
        if word in ("topk", "bottomk"):
            self.next()
            self.expect(Tok.LPAREN)
            k_tok = self.expect(Tok.NUMBER)
            self.expect(Tok.COMMA)
            inner = self._expr()
            self.expect(Tok.RPAREN)
            return PromTopK(int(float(k_tok.text)), inner, bottom=word == "bottomk")
        # Bare metric name, optionally with a matcher block.
        self.next()
        matchers = [Matcher(METRIC_NAME_LABEL, MatchOp.EQ, word)]
        if self.at(Tok.LBRACE):
            matchers.extend(self._matchers())
        return VectorSelector(tuple(matchers))

    def _matchers(self) -> list[Matcher]:
        self.expect(Tok.LBRACE)
        matchers = []
        if not self.at(Tok.RBRACE):
            while True:
                name = self.expect(Tok.IDENT).text
                op_tok = self.next()
                if op_tok.kind not in _MATCH_TOKENS:
                    raise QueryError(
                        f"expected matcher operator at position {op_tok.pos}"
                    )
                value = self.expect(Tok.STRING).text
                matchers.append(Matcher(name, _MATCH_TOKENS[op_tok.kind], value))
                if self.at(Tok.COMMA):
                    self.next()
                    continue
                break
        self.expect(Tok.RBRACE)
        return matchers

    def _range_agg(self) -> PromRangeAgg:
        func = _RANGE_FUNCS[self.expect(Tok.IDENT).text]
        self.expect(Tok.LPAREN)
        tok = self.peek()
        if tok.kind is Tok.IDENT:
            name = self.next().text
            matchers = [Matcher(METRIC_NAME_LABEL, MatchOp.EQ, name)]
            if self.at(Tok.LBRACE):
                matchers.extend(self._matchers())
        elif tok.kind is Tok.LBRACE:
            matchers = self._matchers()
        else:
            raise QueryError(f"expected a selector inside range function (pos {tok.pos})")
        selector = VectorSelector(tuple(matchers))
        self.expect(Tok.LBRACKET)
        range_ns = parse_duration_ns(self.expect(Tok.DURATION).text)
        self.expect(Tok.RBRACKET)
        self.expect(Tok.RPAREN)
        return PromRangeAgg(func, selector, range_ns)

    def _vector_agg(self) -> PromVectorAgg:
        op = _VECTOR_OPS[self.expect(Tok.IDENT).text]
        mode, labels = GroupMode.NONE, ()
        if self.at(Tok.IDENT) and self.peek().text in ("by", "without"):
            mode, labels = self._grouping()
        self.expect(Tok.LPAREN)
        inner = self._expr()
        self.expect(Tok.RPAREN)
        if (
            mode is GroupMode.NONE
            and self.at(Tok.IDENT)
            and self.peek().text in ("by", "without")
        ):
            mode, labels = self._grouping()
        return PromVectorAgg(op, inner, mode, tuple(labels))

    def _grouping(self):
        word = self.expect(Tok.IDENT).text
        mode = GroupMode.BY if word == "by" else GroupMode.WITHOUT
        self.expect(Tok.LPAREN)
        labels = []
        if not self.at(Tok.RPAREN):
            while True:
                labels.append(self.expect(Tok.IDENT).text)
                if self.at(Tok.COMMA):
                    self.next()
                    continue
                break
        self.expect(Tok.RPAREN)
        return mode, tuple(labels)


def parse_promql(query: str) -> PromExpr:
    """Parse a PromQL query into its AST. Raises :class:`QueryError`."""
    if not query or not query.strip():
        raise QueryError("empty query")
    return _Parser(tokenize(query)).parse()


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
class MetricSource(Protocol):
    """What the engine needs from a TSDB: the series matching
    ``matchers`` that hold a sample with ``start_ns <= ts < end_ns``, in
    ascending label order, each with its time-ordered (timestamps,
    values) inside that window.  The engine reads the arrays and never
    writes to them."""

    def select(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, np.ndarray, np.ndarray]]: ...


@dataclass(frozen=True)
class _Vector:
    """An instant vector at every step of a query at once: row *i* is
    one series, column *j* one step.  ``values`` means nothing where
    ``present`` is false.  Vectors are shared (a leaf that occurs twice
    is evaluated once), so operators build new arrays and never write
    into an operand's."""

    labels: list[LabelSet]
    values: np.ndarray  # (series, steps) float64
    present: np.ndarray  # (series, steps) bool


_PAD_TS = np.zeros(1, dtype=np.int64)
_PAD_VALUE = np.zeros(1)


class _Read:
    """What one ``select`` returned, columned: the samples of every
    series end to end in ``ts``/``values`` (one pad element at the very
    end, so a position just past the last sample can still be indexed),
    series *i* starting at ``starts[i]``."""

    def __init__(
        self, selected: list[tuple[LabelSet, np.ndarray, np.ndarray]]
    ) -> None:
        labels, self._series_ts, series_values = (
            zip(*selected) if selected else ((), (), ())
        )
        self.labels = list(labels)
        self.starts = np.fromiter(
            accumulate(map(len, self._series_ts[:-1]), initial=0),
            dtype=np.intp,
            count=len(selected),
        )
        self.ts = np.concatenate(self._series_ts + (_PAD_TS,))
        self.values = np.concatenate(series_values + (_PAD_VALUE,))

    def positions(self, instants: np.ndarray) -> np.ndarray:
        """Per series and instant, the position in the end-to-end columns
        just past the series' last sample at or before the instant (its
        first position, if it has none that early)."""
        out = np.empty((len(self.labels), len(instants)), dtype=np.intp)
        for row, ts in zip(out, self._series_ts):
            row[:] = ts.searchsorted(instants, "right")
        out += self.starts[:, None]
        return out

    def reset_carry(self) -> np.ndarray | None:
        """Per sample, the counter value lost to resets between its
        series' first sample in the read and it — a counter's increase
        between two samples is the difference of their values plus the
        difference of their carries — or None if no counter was reset."""
        fell = self.values[1:-1] < self.values[:-2]  # fell[i]: sample i+1 below sample i
        fell[self.starts[1:] - 1] = False  # a next series is not a reset
        if not fell.any():
            return None
        at = np.flatnonzero(fell) + 1
        carry = np.zeros(len(self.values))
        carry[at] = self.values[at - 1]
        # Summed series by series, so one series' carry is never rounded
        # at the magnitude of all the others' put together.
        ends = np.append(self.starts[1:], len(carry) - 1)
        for series in np.unique(np.searchsorted(self.starts, at, "right") - 1):
            segment = slice(self.starts[series], ends[series])
            carry[segment] = np.cumsum(carry[segment])
        return carry


_COMPARE = {
    CmpOp.EQ: np.equal,
    CmpOp.NEQ: np.not_equal,
    CmpOp.GT: np.greater,
    CmpOp.GTE: np.greater_equal,
    CmpOp.LT: np.less,
    CmpOp.LTE: np.less_equal,
}
_ARITH = {ArithOp.ADD: np.add, ArithOp.SUB: np.subtract, ArithOp.MUL: np.multiply}
_WINDOW_REDUCE = {
    PromRangeFunc.SUM_OVER_TIME: np.add,
    PromRangeFunc.AVG_OVER_TIME: np.add,
    PromRangeFunc.MIN_OVER_TIME: np.minimum,
    PromRangeFunc.MAX_OVER_TIME: np.maximum,
}


def _arith(op: ArithOp, a, b) -> np.ndarray:
    if op is ArithOp.DIV:  # x / 0 is NaN, as `ArithOp.apply` has it
        return np.where(np.not_equal(b, 0), np.divide(a, b), np.nan)
    return _ARITH[op](a, b)


def _join_keys(vector: _Vector) -> list[LabelSet]:
    """What binary operators match series on: all labels but the name."""
    return [labels.without(METRIC_NAME_LABEL) for labels in vector.labels]


class _Evaluation:
    """One query over one grid of steps.

    Every leaf — a selector, or a range function over one — reads the
    source once, over the union of its windows at all steps, and finds
    each step's window in each series with ``searchsorted``; everything
    above a leaf is arithmetic on (series × steps) arrays.  An instant
    query is the one-step case.

    Float order is pinned so a result depends on the windows only, never
    on the grid: a vector is consumed in row order, which is ascending
    label order out of ``select`` and out of an aggregation, and
    ``sum``/``avg`` add their rows one by one in that order.
    """

    def __init__(
        self, source: MetricSource, lookback_ns: int, steps: np.ndarray
    ) -> None:
        self._source = source
        self._lookback_ns = lookback_ns
        self._steps = steps
        self._first_step, self._last_step = int(steps[0]), int(steps[-1])
        self._leaves: dict[VectorSelector | PromRangeAgg, _Vector] = {}

    def vector(self, expr: PromExpr | Scalar) -> _Vector:
        if isinstance(expr, (VectorSelector, PromRangeAgg)):
            # Keyed by value: (matchers) or (func, matchers, range).
            vector = self._leaves.get(expr)
            if vector is None:
                leaf = self._selector if isinstance(expr, VectorSelector) else self._range
                vector = self._leaves[expr] = leaf(expr)
            return vector
        if isinstance(expr, PromVectorAgg):
            return self._aggregate(expr)
        if isinstance(expr, PromBinOp):
            if isinstance(expr.lhs, Scalar) or isinstance(expr.rhs, Scalar):
                return self._scalar_binop(expr)
            return self._vector_binop(expr)
        if isinstance(expr, PromSetOp):
            return self._set_op(expr)
        if isinstance(expr, PromAbsent):
            return self._absent(expr)
        if isinstance(expr, PromTopK):
            return self._topk(expr)
        raise QueryError(f"cannot evaluate {type(expr).__name__} as a vector")

    def _empty(self, rows: int = 0) -> tuple[np.ndarray, np.ndarray]:
        shape = (rows, len(self._steps))
        return np.zeros(shape), np.zeros(shape, dtype=bool)

    # -- leaves --------------------------------------------------------------
    def _read(self, selector: VectorSelector, window_ns: int) -> _Read:
        """The one read of a leaf: the union of the windows
        ``(t - window, t]`` over every step ``t``."""
        return _Read(
            self._source.select(
                selector.matchers,
                self._first_step - window_ns + 1,
                self._last_step + 1,
            )
        )

    def _selector(self, expr: VectorSelector) -> _Vector:
        read = self._read(expr, self._lookback_ns)
        if not read.labels:
            return _Vector([], *self._empty())
        # The most recent sample at or before each step, if it is inside
        # the staleness window.
        last = read.positions(self._steps) - 1
        fresh = read.ts[last] > self._steps - self._lookback_ns
        return _Vector(
            read.labels, read.values[last], (last >= read.starts[:, None]) & fresh
        )

    def _range(self, expr: PromRangeAgg) -> _Vector:
        read = self._read(expr.selector, expr.range_ns)
        if not read.labels:
            return _Vector([], *self._empty())
        func = expr.func
        # Both edges of every window (t - range, t] in one search a series.
        steps = self._steps
        edges = read.positions(np.concatenate([steps - expr.range_ns, steps]))
        first, end = edges[:, : len(steps)], edges[:, len(steps) :]
        count = end - first
        needed = 1
        if func is PromRangeFunc.COUNT_OVER_TIME:
            values = count.astype(np.float64)
        elif func is PromRangeFunc.LAST_OVER_TIME:
            values = read.values[end - 1]
        elif func in _WINDOW_REDUCE:
            # reduceat over [first0, end0, first1, end1, ...]: the even
            # results are the windows, the odd ones the gaps between.
            bounds = np.stack([first, end], axis=-1).ravel()
            values = _WINDOW_REDUCE[func].reduceat(read.values, bounds)[::2]
            values = values.reshape(count.shape)
            if func is PromRangeFunc.AVG_OVER_TIME:
                values = values / np.maximum(count, 1)
        else:
            # rate / increase / delta: last minus first, of two or more.
            needed = 2
            values = read.values[end - 1] - read.values[first]
            if func is not PromRangeFunc.DELTA:
                # Counter semantics: add back what resets took away.
                carry = read.reset_carry()
                if carry is not None:
                    values = values + (carry[end - 1] - carry[first])
                if func is PromRangeFunc.RATE:
                    values = values / (expr.range_ns / NANOS_PER_SECOND)
        return _Vector(
            # Range functions drop the metric name (Prometheus semantics).
            [labels.without(METRIC_NAME_LABEL) for labels in read.labels],
            values,
            count >= needed,
        )

    # -- operators -----------------------------------------------------------
    def _aggregate(self, expr: PromVectorAgg) -> _Vector:
        inner = self.vector(expr.expr)
        if expr.mode is GroupMode.BY:
            by = [name for name in expr.labels if name != METRIC_NAME_LABEL]
            keys = [labels.project(by) for labels in inner.labels]
        elif expr.mode is GroupMode.WITHOUT:
            drop = (METRIC_NAME_LABEL, *expr.labels)
            keys = [labels.without(*drop) for labels in inner.labels]
        else:
            keys = [EMPTY_LABELS] * len(inner.labels)
        groups = sorted(set(keys), key=LabelSet.items_tuple)
        number = {key: g for g, key in enumerate(groups)}
        group_of = np.array([number[key] for key in keys], dtype=np.intp)

        values, _ = self._empty(len(groups))
        count = np.zeros(values.shape, dtype=np.int64)
        np.add.at(count, group_of, inner.present.astype(np.int64))
        if expr.op is VectorOp.COUNT:
            values = count.astype(np.float64)
        elif expr.op in (VectorOp.SUM, VectorOp.AVG):
            # Row by row, top to bottom: each step's vector added up left
            # to right, one IEEE addition at a time, for every step at once.
            for g, row in zip(group_of, np.where(inner.present, inner.values, 0.0)):
                values[g] += row
            if expr.op is VectorOp.AVG:
                values /= np.maximum(count, 1)
        else:
            # Python's min()/max(): the first value, then each one that
            # is strictly better.
            better = np.less if expr.op is VectorOp.MIN else np.greater
            seen = np.zeros(values.shape, dtype=bool)
            for g, row, here in zip(group_of, inner.values, inner.present):
                take = here & (~seen[g] | better(row, values[g]))
                values[g] = np.where(take, row, values[g])
                seen[g] |= here
        return _Vector(groups, values, count > 0)

    def _scalar_binop(self, expr: PromBinOp) -> _Vector:
        scalar_left = isinstance(expr.lhs, Scalar)
        vector = self.vector(expr.rhs if scalar_left else expr.lhs)
        scalar = (expr.lhs if scalar_left else expr.rhs).value
        a, b = (scalar, vector.values) if scalar_left else (vector.values, scalar)
        if isinstance(expr.op, CmpOp):  # a comparison filters
            return _Vector(
                vector.labels, vector.values, vector.present & _COMPARE[expr.op](a, b)
            )
        return _Vector(vector.labels, _arith(expr.op, a, b), vector.present)

    def _vector_binop(self, expr: PromBinOp) -> _Vector:
        lhs, rhs = self.vector(expr.lhs), self.vector(expr.rhs)
        lkeys = _join_keys(lhs)
        right = self._one_per_key(
            rhs, _join_keys(rhs), "many-to-one matching not supported: "
            "duplicate right-hand series"
        )
        self._one_per_key(
            lhs, lkeys, "one-to-many matching not supported: "
            "duplicate left-hand series"
        )
        row_of = dict(zip(right.labels, range(len(right.labels))))
        # One-to-one join: unmatched series drop out.
        rows = [i for i, key in enumerate(lkeys) if key in row_of]
        others = [row_of[lkeys[i]] for i in rows]
        a, b = lhs.values[rows], right.values[others]
        both = lhs.present[rows] & right.present[others]
        if isinstance(expr.op, CmpOp):
            return _Vector(
                [lhs.labels[i] for i in rows], a, both & _COMPARE[expr.op](a, b)
            )
        # Arithmetic drops the metric name (Prometheus semantics).
        return _Vector([lkeys[i] for i in rows], _arith(expr.op, a, b), both)

    def _one_per_key(
        self, vector: _Vector, keys: list[LabelSet], problem: str
    ) -> _Vector:
        """``vector`` with one row per join key.  Rows sharing a key are
        merged if they take turns; two of them present at one step is the
        duplicate Prometheus refuses to match."""
        if len(set(keys)) == len(keys):
            return _Vector(keys, vector.values, vector.present)
        rows_of: dict[LabelSet, list[int]] = {}
        for row, key in enumerate(keys):
            rows_of.setdefault(key, []).append(row)
        values, present = self._empty(len(rows_of))
        for merged, (key, rows) in enumerate(rows_of.items()):
            if (vector.present[rows].sum(axis=0) > 1).any():
                raise QueryError(f"{problem} {key}")
            for row in rows:
                here = vector.present[row]
                values[merged] = np.where(here, vector.values[row], values[merged])
                present[merged] |= here
        return _Vector(list(rows_of), values, present)

    def _held_by(
        self, keys: list[LabelSet], other: _Vector, other_keys: list[LabelSet]
    ) -> np.ndarray:
        """Per key and step, whether ``other`` holds a series of that key."""
        holds: dict[LabelSet, np.ndarray] = {}
        for key, here in zip(other_keys, other.present):
            holds[key] = holds[key] | here if key in holds else here
        _, held = self._empty(len(keys))
        for row, key in zip(held, keys):
            if key in holds:
                row[:] = holds[key]
        return held

    def _set_op(self, expr: PromSetOp) -> _Vector:
        lhs, rhs = self.vector(expr.lhs), self.vector(expr.rhs)
        lkeys, rkeys = _join_keys(lhs), _join_keys(rhs)
        if expr.op is SetOp.OR:
            extra = rhs.present & ~self._held_by(rkeys, lhs, lkeys)
            return _Vector(
                lhs.labels + rhs.labels,
                np.concatenate([lhs.values, rhs.values]),
                np.concatenate([lhs.present, extra]),
            )
        matched = self._held_by(lkeys, rhs, rkeys)
        if expr.op is SetOp.UNLESS:
            matched = ~matched
        return _Vector(lhs.labels, lhs.values, lhs.present & matched)

    def _absent(self, expr: PromAbsent) -> _Vector:
        inner = self.vector(expr.selector)
        # Equality matchers become the result labels, as in Prometheus.
        labels = LabelSet(
            {
                m.name: m.value
                for m in expr.selector.matchers
                if m.op is MatchOp.EQ and m.name != METRIC_NAME_LABEL and m.value
            }
        )
        return _Vector(
            [labels],
            np.ones((1, len(self._steps))),
            ~inner.present.any(axis=0, keepdims=True),
        )

    def _topk(self, expr: PromTopK) -> _Vector:
        inner = self.vector(expr.expr)
        # Each row's place in ascending label order: the tie-break.
        in_order = sorted(
            range(len(inner.labels)), key=lambda row: inner.labels[row].items_tuple()
        )
        rank = np.empty(len(in_order), dtype=np.intp)
        rank[in_order] = np.arange(len(in_order))
        keep = np.zeros_like(inner.present)
        for step in range(len(self._steps)):
            rows = np.flatnonzero(inner.present[:, step])
            if len(rows) > expr.k:
                # Ascending by (value, labels); topk takes the far end.
                ranked = rows[np.lexsort((rank[rows], inner.values[rows, step]))]
                rows = ranked[: expr.k] if expr.bottom else ranked[-expr.k :]
            keep[rows, step] = True
        return _Vector(inner.labels, inner.values, keep)


class PromQLEngine:
    """Evaluates the PromQL subset against a :class:`TimeSeriesStore`."""

    def __init__(
        self, source: MetricSource, lookback_ns: int = DEFAULT_LOOKBACK_NS
    ) -> None:
        self._source = source
        self._lookback_ns = lookback_ns

    def query_instant(self, query: str | PromExpr, time_ns: int) -> list[Sample]:
        expr = parse_promql(query) if isinstance(query, str) else query
        vector = self._evaluate(expr, np.array([time_ns], dtype=np.int64))
        result = [
            Sample(labels, value, time_ns)
            for labels, value, here in zip(
                vector.labels,
                vector.values[:, 0].tolist(),
                vector.present[:, 0].tolist(),
            )
            if here
        ]
        if isinstance(expr, PromTopK):
            # Rank order is the point of topk/bottomk.
            result.sort(
                key=lambda s: (s.value, s.labels.items_tuple()),
                reverse=not expr.bottom,
            )
        else:
            result.sort(key=lambda s: s.labels.items_tuple())
        return result

    def query_range(
        self, query: str | PromExpr, start_ns: int, end_ns: int, step_ns: int
    ) -> list[Series]:
        if step_ns <= 0:
            raise QueryError("step must be positive")
        if end_ns < start_ns:
            raise QueryError("end before start")
        expr = parse_promql(query) if isinstance(query, str) else query
        steps = np.arange(start_ns, end_ns + 1, step_ns, dtype=np.int64)
        vector = self._evaluate(expr, steps)
        points: dict[LabelSet, list[tuple[int, float]]] = {}
        times = steps.tolist()
        rows = np.flatnonzero(vector.present.any(axis=1))
        for row, values, here in zip(
            rows.tolist(), vector.values[rows].tolist(), vector.present[rows].tolist()
        ):
            of_row = list(zip(compress(times, here), compress(values, here)))
            labels = vector.labels[row]
            if labels in points:
                # Two rows under one label set (a selector over several
                # metric names, stripped of the name): step by step, the
                # earlier row first.
                of_row = sorted(points[labels] + of_row, key=lambda point: point[0])
            points[labels] = of_row
        return [
            Series(labels, tuple(points[labels]))
            for labels in sorted(points, key=LabelSet.items_tuple)
        ]

    def _evaluate(self, expr: PromExpr, steps: np.ndarray) -> _Vector:
        # Values under a false `present` are never looked at, so whatever
        # arithmetic makes of them is not worth a warning.
        with np.errstate(all="ignore"):
            return _Evaluation(self._source, self._lookback_ns, steps).vector(expr)
