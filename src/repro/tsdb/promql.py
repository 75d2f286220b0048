"""PromQL/MetricsQL subset for the TSDB.

vmalert and Grafana query VictoriaMetrics with PromQL.  Everything above
a leaf — aggregation, binary and set operators, ``topk``, precedence — is
the vector language shared with LogQL (:mod:`repro.common.vectorlang`,
evaluated by :class:`repro.common.vector.Evaluation`); this module is
PromQL's leaves, their grammar and how each reads the TSDB:

* instant selectors — ``node_temp_celsius{cluster="perlmutter"}`` with
  the standard 5-minute staleness lookback;
* range functions — ``rate``, ``increase``, ``delta``, ``avg_over_time``,
  ``min_over_time``, ``max_over_time``, ``sum_over_time``,
  ``count_over_time``, ``last_over_time`` over ``[5m]`` windows;
* ``absent(selector)``, the alerting primitive for silent failures.
"""

from __future__ import annotations

import enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Protocol, Sequence, Union

import numpy as np

from repro.common.errors import QueryError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet, Matcher, MatchOp
from repro.common.simclock import NANOS_PER_SECOND, minutes
from repro.common.vector import (
    Evaluation,
    Sample,
    Series,
    Vector,
    instant_grid,
    range_grid,
)
from repro.common.vectorlang import (
    BinOp,
    Scalar,
    SetExpr,
    Tok,
    TopK,
    VectorAgg,
    VectorParser,
    node,
)
from repro.tsdb.storage import Selection

#: Prometheus staleness lookback for instant selectors.
DEFAULT_LOOKBACK_NS = minutes(5)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------
@node
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


@node
class PromRangeAgg:
    func: PromRangeFunc
    selector: VectorSelector
    range_ns: int

    def __post_init__(self) -> None:
        if self.range_ns <= 0:
            raise QueryError("range window must be positive")


@node
class PromAbsent:
    """``absent(node_up{job="node"})`` — 1 when the selector returns
    nothing.  The alerting primitive for *silent* failures: a sampler
    that stops reporting never trips a threshold rule, but it does trip
    ``absent(...)``."""

    selector: VectorSelector


PromExpr = Union[
    VectorSelector, PromRangeAgg, PromAbsent, VectorAgg, BinOp, SetExpr, TopK
]

_RANGE_FUNCS = {f.value: f for f in PromRangeFunc}


class _Parser(VectorParser):
    def _leaf(self) -> PromExpr:
        tok = self.peek()
        if tok.kind is Tok.IDENT and tok.text in _RANGE_FUNCS:
            func = _RANGE_FUNCS[self.next().text]
            self.expect(Tok.LPAREN)
            selector = self._selector()
            range_ns = self._range_ns()
            self.expect(Tok.RPAREN)
            return PromRangeAgg(func, selector, range_ns)
        if tok.kind is Tok.IDENT and tok.text == "absent":
            self.next()
            self.expect(Tok.LPAREN)
            selector = self._selector()
            self.expect(Tok.RPAREN)
            return PromAbsent(selector)
        return self._selector()

    def _selector(self) -> VectorSelector:
        """A bare metric name, a matcher block, or the one then the other."""
        tok = self.peek()
        if tok.kind is Tok.IDENT:
            matchers = [Matcher(METRIC_NAME_LABEL, MatchOp.EQ, self.next().text)]
            if self.at(Tok.LBRACE):
                matchers.extend(self._matchers())
        elif tok.kind is Tok.LBRACE:
            matchers = self._matchers()
        else:
            raise QueryError(
                f"expected a vector selector at position {tok.pos}, "
                f"found {tok.text or 'EOF'!r}"
            )
        return VectorSelector(tuple(matchers))


@lru_cache(maxsize=1 << 10)
def parse_promql(query: str) -> PromExpr:
    """Parse a PromQL query into its AST. Raises :class:`QueryError`.

    Once per text, the last 1,024 kept, as LogQL's ``parse`` does."""
    return _Parser(query).parse()


def leaf_reads(expr: PromExpr | Scalar) -> Iterator[tuple[VectorSelector, int | None]]:
    """Every selector ``expr`` reads, each time it does, with the range
    window it asks of it (None: the engine's staleness lookback)."""
    if isinstance(expr, PromRangeAgg):
        yield expr.selector, expr.range_ns
    elif isinstance(expr, PromAbsent):
        yield expr.selector, None
    elif isinstance(expr, VectorSelector):
        yield expr, None
    elif isinstance(expr, (BinOp, SetExpr)):
        yield from leaf_reads(expr.lhs)
        yield from leaf_reads(expr.rhs)
    elif isinstance(expr, (VectorAgg, TopK)):
        yield from leaf_reads(expr.expr)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
class MetricSource(Protocol):
    """What the engine needs from a TSDB: the series matching
    ``matchers`` that hold a sample with ``start_ns <= ts < end_ns``, in
    ascending label order, each with its time-ordered (timestamps,
    values) inside that window — a :class:`~repro.tsdb.storage.Selection`,
    whose columns the engine reads as they are, or any sequence of such
    rows.  The engine reads the arrays and never writes to them."""

    def select(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int
    ) -> Sequence[tuple[LabelSet, np.ndarray, np.ndarray]]: ...


class _Read:
    """What one ``select`` returned, columned: the samples of every
    series end to end in ``ts``/``values`` (one pad element at the very
    end, so a position just past the last sample can still be indexed),
    series *i* starting at ``starts[i]``.  Every leaf over the selector
    shares the read, so what depends on the read alone — where every
    window the group asks of it begins and ends in each series, what
    resets took from each counter — is worked out once, here, and only
    ever read."""

    def __init__(
        self,
        selected: Sequence[tuple[LabelSet, np.ndarray, np.ndarray]],
        steps: np.ndarray,
        ranges: tuple[int, ...],
    ) -> None:
        selection = Selection.of(selected)
        self.labels = selection.labels
        self._bounds = selection.bounds
        self.starts = selection.bounds[:-1]
        self.ts, self.values = selection.ts, selection.values
        # Both edges of every window (t - range, t], for every range
        # function's range, in one search.
        edges = self.positions(np.concatenate([steps - r for r in ranges] + [steps]))
        n = len(steps)
        #: Where each step's windows end, and per range where they begin.
        self.end = edges[:, len(ranges) * n :]
        self.first = {r: edges[:, i * n : (i + 1) * n] for i, r in enumerate(ranges)}

    def positions(self, instants: np.ndarray) -> np.ndarray:
        """Per series and instant, the position in the end-to-end columns
        just past the series' last sample at or before the instant (its
        first position, if it has none that early).

        No loop over series: a sample's *rank* is how many instants come
        before it, so a series' samples at or before the instant of rank
        j are those of rank j or less — a count of ranks per series, run
        up the instants."""
        order = instants.argsort(kind="stable")
        rank = instants[order].searchsorted(self.ts[:-1], "left")
        series, width = len(self.labels), len(instants) + 1
        rank += np.arange(0, series * width, width).repeat(self._bounds[1:] - self.starts)
        counts = np.bincount(rank, minlength=series * width).reshape(series, width)
        out = np.empty((series, len(instants)), dtype=np.intp)
        out[:, order] = counts[:, :-1].cumsum(axis=1) + self.starts[:, None]
        return out

    @cached_property
    def nameless(self) -> list[LabelSet]:
        """The series without their metric name: what a range function
        calls its rows (Prometheus semantics)."""
        return [labels.nameless() for labels in self.labels]

    @cached_property
    def reset_drops(self) -> np.ndarray | None:
        """Per sample, the counter value a reset just before it took away
        (the sample before it, where it is lower than that one; zero
        elsewhere) — a counter's increase over a window is its last value
        minus its first plus the drops after the first — or None if no
        counter was reset."""
        fell = self.values[1:-1] < self.values[:-2]  # fell[i]: sample i+1 below sample i
        fell[self.starts[1:] - 1] = False  # a next series is not a reset
        if not fell.any():
            return None
        at = np.flatnonzero(fell) + 1
        drops = np.zeros(len(self.values))
        drops[at] = self.values[at - 1]
        return drops


_WINDOW_REDUCE = {
    PromRangeFunc.SUM_OVER_TIME: np.add,
    PromRangeFunc.AVG_OVER_TIME: np.add,
    PromRangeFunc.MIN_OVER_TIME: np.minimum,
    PromRangeFunc.MAX_OVER_TIME: np.maximum,
}


class _Evaluation(Evaluation):
    """PromQL's leaves over one grid of steps.  The source is read once
    per distinct *selector*: every leaf over it — the instant vector, a
    range function, the same function over another window — finds its
    own windows, with ``searchsorted``, in one read that spans the widest
    of them at all steps.  ``select`` returns series in ascending label
    order, which is the row order a leaf owes the operators above it; a
    series the read holds that has nothing in a narrower window is a row
    present at no step, which no operator can tell from no row."""

    def __init__(self, group: "Group", steps: np.ndarray) -> None:
        super().__init__(steps)
        self._source = group.source
        self._lookback_ns = group.lookback_ns
        self._asked = group.asked
        self._reads: dict[VectorSelector, _Read] = {}

    def leaf(self, expr: PromExpr) -> Vector:
        if isinstance(expr, VectorSelector):
            return self._selector(expr)
        if isinstance(expr, PromRangeAgg):
            return self._range(expr)
        if isinstance(expr, PromAbsent):
            return self._absent(expr)
        raise QueryError(f"cannot evaluate {type(expr).__name__} as a vector")

    def _read(self, selector: VectorSelector) -> _Read:
        """The one read of a selector: the union of the windows
        ``(t - widest, t]`` over every step ``t``, ``widest`` being the
        widest window any expression of the group asks of it."""
        read = self._reads.get(selector)
        if read is None:
            widest_ns, ranges = self._asked[selector]
            read = self._reads[selector] = _Read(
                self._source.select(
                    selector.matchers,
                    int(self.steps[0]) - widest_ns + 1,
                    int(self.steps[-1]) + 1,
                ),
                self.steps,
                ranges,
            )
        return read

    def _selector(self, expr: VectorSelector) -> Vector:
        read = self._read(expr)
        if not read.labels:
            return Vector([], *self._empty())
        # The most recent sample at or before each step, if it is inside
        # the staleness window.
        last = read.end - 1
        fresh = read.ts[last] > self.steps - self._lookback_ns
        return Vector(
            read.labels, read.values[last], (last >= read.starts[:, None]) & fresh
        )

    def _range(self, expr: PromRangeAgg) -> Vector:
        read = self._read(expr.selector)
        if not read.labels:
            return Vector([], *self._empty())
        func = expr.func
        first, end = read.first[expr.range_ns], read.end
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
                # Summed inside each window, so the increase depends on
                # the window's samples alone, never on how much wider the
                # group's read of the selector is.
                drops = read.reset_drops
                if drops is not None:
                    after = np.minimum(first + 1, end)
                    bounds = np.stack([after, end], axis=-1).ravel()
                    lost = np.add.reduceat(drops, bounds)[::2].reshape(count.shape)
                    # A window of one sample or none has no drop to add
                    # (and no value: it needs two).
                    values = values + np.where(end > after, lost, 0.0)
                if func is PromRangeFunc.RATE:
                    values = values / (expr.range_ns / NANOS_PER_SECOND)
        return Vector(read.nameless, values, count >= needed)

    def _absent(self, expr: PromAbsent) -> Vector:
        inner = self.vector(expr.selector)
        # Equality matchers become the result labels, as in Prometheus.
        labels = LabelSet(
            {
                m.name: m.value
                for m in expr.selector.matchers
                if m.op is MatchOp.EQ and m.name != METRIC_NAME_LABEL and m.value
            }
        )
        return Vector(
            [labels],
            np.ones((1, len(self.steps))),
            ~inner.present.any(axis=0, keepdims=True),
        )


class Group:
    """Expressions evaluated together — the rules of a group, the reads
    of one tick, a single query: the unit the engine evaluates.  A group
    knows what its expressions ask of each distinct selector — the widest
    window, which is what gets read, and every range function's range,
    whose edges the read finds in one go; that table moves when an
    expression is added, so evaluating the group builds nothing but the
    :class:`Evaluation`, which answers for the group's expressions and
    no others."""

    def __init__(self, source: MetricSource, lookback_ns: int) -> None:
        self.source = source
        self.lookback_ns = lookback_ns
        #: Per distinct selector: (widest window, every range asked).
        self.asked: dict[VectorSelector, tuple[int, tuple[int, ...]]] = {}

    def add(self, expr: PromExpr) -> None:
        for selector, range_ns in leaf_reads(expr):
            widest_ns, ranges = self.asked.get(selector, (0, ()))
            if range_ns is None:
                range_ns = self.lookback_ns  # a window to read, no range to find
            elif range_ns not in ranges:
                ranges = (*ranges, range_ns)
            self.asked[selector] = max(widest_ns, range_ns), ranges

    def instant(self, time_ns: int) -> Evaluation:
        """The group at one instant: ``.samples(expr)`` of each."""
        return _Evaluation(self, instant_grid(time_ns))

    def range(self, start_ns: int, end_ns: int, step_ns: int) -> Evaluation:
        """The group at every step of a range: ``.series(expr)`` of each."""
        return _Evaluation(self, range_grid(start_ns, end_ns, step_ns))


class PromQLEngine:
    """Evaluates the PromQL subset against a :class:`TimeSeriesStore`."""

    def __init__(
        self, source: MetricSource, lookback_ns: int = DEFAULT_LOOKBACK_NS
    ) -> None:
        self._source = source
        self._lookback_ns = lookback_ns

    def group(self, exprs: Iterable[PromExpr] = ()) -> Group:
        """A :class:`Group` of parsed expressions, to be added to and
        evaluated as often as its owner likes."""
        group = Group(self._source, self._lookback_ns)
        for expr in exprs:
            group.add(expr)
        return group

    def query_instant(self, query: str | PromExpr, time_ns: int) -> list[Sample]:
        expr = self._parsed(query)
        return self.group((expr,)).instant(time_ns).samples(expr)

    def query_range(
        self, query: str | PromExpr, start_ns: int, end_ns: int, step_ns: int
    ) -> list[Series]:
        expr = self._parsed(query)
        return self.group((expr,)).range(start_ns, end_ns, step_ns).series(expr)

    @staticmethod
    def _parsed(query: str | PromExpr) -> PromExpr:
        return parse_promql(query) if isinstance(query, str) else query
