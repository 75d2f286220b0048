"""The per-instant reference for the vector layer both languages share.

``repro.common.vector.Evaluation`` evaluates aggregation, binary and set
operators and ``topk`` on (series × steps) arrays, once for LogQL and
PromQL.  The reference here is what it must equal: one instant at a
time, plain loops over ``(labels, value)`` pairs, nothing shared between
instants.  The two equivalence suites (``test_logql_range_equivalence``,
``test_promql_range_equivalence``) bring their own leaves — a callable
``leaf(expr, t)`` returning the pairs of one of the language's own nodes
in ascending label order — and get everything above them from here.

Floats are added one by one (:func:`add_up`), never with the built-in
``sum``, which compensates for rounding from Python 3.12 on: the engine
pins one IEEE addition after another, in ascending label order, on every
Python.  The tests at the bottom pin the reference itself on vectors
small enough to work out by hand.
"""

import math

import pytest

from repro.common.errors import QueryError
from repro.common.labels import EMPTY_LABELS, METRIC_NAME_LABEL, LabelSet
from repro.common.vector import Sample, Series
from repro.common.vectorlang import (
    ArithOp,
    BinOp,
    CmpOp,
    GroupMode,
    Scalar,
    SetExpr,
    SetOp,
    TopK,
    VectorAgg,
    VectorOp,
)


def add_up(values) -> float:
    """One IEEE addition after another, left to right — what the engine
    pins.  (The built-in ``sum`` compensates for rounding from Python
    3.12 on, so it is not that.)"""
    total = 0.0
    for value in values:
        total = total + value
    return total


def name_dropped(labels: LabelSet) -> LabelSet:
    return LabelSet({k: v for k, v in labels.items() if k != METRIC_NAME_LABEL})


def reference_vector(expr, t: int, leaf) -> list[tuple[LabelSet, float]]:
    """The instant vector of ``expr`` at ``t`` as (labels, value) pairs,
    in the order the next operator up consumes them."""
    again = lambda inner: reference_vector(inner, t, leaf)  # noqa: E731
    if isinstance(expr, VectorAgg):
        groups: dict[LabelSet, list[float]] = {}
        for labels, value in again(expr.expr):
            rest = {k: v for k, v in labels.items() if k != METRIC_NAME_LABEL}
            if expr.mode is GroupMode.BY:
                key = LabelSet({k: v for k, v in rest.items() if k in expr.labels})
            elif expr.mode is GroupMode.WITHOUT:
                key = LabelSet({k: v for k, v in rest.items() if k not in expr.labels})
            else:
                key = EMPTY_LABELS
            groups.setdefault(key, []).append(value)
        reduce = {
            VectorOp.SUM: add_up,
            VectorOp.MIN: min,
            VectorOp.MAX: max,
            VectorOp.AVG: lambda values: add_up(values) / len(values),
            VectorOp.COUNT: lambda values: float(len(values)),
        }[expr.op]
        # An aggregation's vector leaves in ascending label order.
        return [
            (key, reduce(groups[key]))
            for key in sorted(groups, key=LabelSet.items_tuple)
        ]
    if isinstance(expr, BinOp):
        if isinstance(expr.lhs, Scalar) or isinstance(expr.rhs, Scalar):
            scalar_left = isinstance(expr.lhs, Scalar)
            scalar = (expr.lhs if scalar_left else expr.rhs).value
            out = []
            for labels, value in again(expr.rhs if scalar_left else expr.lhs):
                a, b = (scalar, value) if scalar_left else (value, scalar)
                if isinstance(expr.op, CmpOp):
                    if expr.op.apply(a, b):
                        out.append((labels, value))
                else:
                    out.append((labels, expr.op.apply(a, b)))
            return out
        rindex: dict[LabelSet, float] = {}
        for labels, value in again(expr.rhs):
            key = name_dropped(labels)
            if key in rindex:
                raise QueryError(f"duplicate right-hand series {key}")
            rindex[key] = value
        seen, out = set(), []
        for labels, value in again(expr.lhs):
            key = name_dropped(labels)
            if key in seen:
                raise QueryError(f"duplicate left-hand series {key}")
            seen.add(key)
            if key not in rindex:
                continue
            if isinstance(expr.op, CmpOp):
                if expr.op.apply(value, rindex[key]):
                    out.append((labels, value))
            else:
                out.append((key, expr.op.apply(value, rindex[key])))
        return out
    if isinstance(expr, SetExpr):
        lhs, rhs = again(expr.lhs), again(expr.rhs)
        rkeys = {name_dropped(labels) for labels, _ in rhs}
        if expr.op is SetOp.AND:
            return [p for p in lhs if name_dropped(p[0]) in rkeys]
        if expr.op is SetOp.UNLESS:
            return [p for p in lhs if name_dropped(p[0]) not in rkeys]
        lkeys = {name_dropped(labels) for labels, _ in lhs}
        return lhs + [p for p in rhs if name_dropped(p[0]) not in lkeys]
    if isinstance(expr, TopK):
        ranked = sorted(
            again(expr.expr),
            key=lambda pair: (pair[1], pair[0].items_tuple()),
            reverse=not expr.bottom,
        )
        return ranked[: expr.k]
    return leaf(expr, t)


def reference_instant(expr, t: int, leaf) -> list[Sample]:
    vector = reference_vector(expr, t, leaf)
    if not isinstance(expr, TopK):  # rank order is the point of topk
        vector = sorted(vector, key=lambda pair: pair[0].items_tuple())
    return [Sample(labels, value, t) for labels, value in vector]


def reference_range(expr, start: int, end: int, step: int, leaf) -> list[Series]:
    points: dict[LabelSet, list] = {}
    for t in range(start, end + 1, step):
        for sample in reference_instant(expr, t, leaf):
            points.setdefault(sample.labels, []).append((t, sample.value))
    return [
        Series(labels, tuple(points[labels]))
        for labels in sorted(points, key=LabelSet.items_tuple)
    ]


# ----------------------------------------------------------------------
# The reference, worked out by hand
# ----------------------------------------------------------------------
def _vector(name: str, **values: float):
    """``name{i="k"} value`` for each keyword, in ascending label order."""
    return [
        (LabelSet({METRIC_NAME_LABEL: name, "i": i}), value)
        for i, value in sorted(values.items())
    ]


VECTORS = {
    "m": _vector("m", a=0.1, b=1e16, c=-1e16, d=0.3),
    "n": _vector("n", b=2.0, c=4.0, e=8.0),
}
#: Two series under the join keys {i="b"} and {i="c"}.
VECTORS["m_n"] = VECTORS["m"] + VECTORS["n"]


def _by_name(expr, _t):
    return VECTORS[expr]


def _values(expr) -> list[tuple[str, float]]:
    return [(labels.get("i", ""), value) for labels, value in reference_vector(expr, 0, _by_name)]


class TestReferenceByHand:
    def test_add_up_is_neither_compensated_nor_reordered(self):
        values = [value for _labels, value in VECTORS["m"]]
        assert add_up(values) == ((0.1 + 1e16) - 1e16) + 0.3 == 0.3
        assert math.fsum(values) == 0.4
        assert add_up(reversed(values)) == 0.1
        assert _values(VectorAgg(VectorOp.SUM, "m")) == [("", 0.3)]
        assert _values(VectorAgg(VectorOp.AVG, "m")) == [("", 0.3 / 4)]

    def test_aggregation_drops_the_name_and_sorts_its_groups(self):
        assert reference_vector(
            VectorAgg(VectorOp.COUNT, "n", GroupMode.BY, ("i", METRIC_NAME_LABEL)), 0, _by_name
        ) == [(LabelSet({"i": i}), 1.0) for i in "bce"]
        assert _values(VectorAgg(VectorOp.MAX, "n", GroupMode.WITHOUT, ("i",))) == [("", 8.0)]

    def test_join_is_one_to_one_on_labels_minus_the_name(self):
        ratio = BinOp(ArithOp.DIV, "m", "n")
        assert reference_vector(ratio, 0, _by_name) == [
            (LabelSet({"i": "b"}), 5e15),
            (LabelSet({"i": "c"}), -2.5e15),
        ]
        # A comparison filters the left side and keeps its labels.
        assert reference_vector(BinOp(CmpOp.GT, "m", "n"), 0, _by_name) == [VECTORS["m"][1]]
        for duplicated in (BinOp(ArithOp.ADD, "m", "m_n"), BinOp(CmpOp.GT, "m_n", "m")):
            with pytest.raises(QueryError):
                reference_vector(duplicated, 0, _by_name)

    def test_scalar_side_and_division_by_zero(self):
        less = BinOp(ArithOp.SUB, Scalar(10.0), "n")
        assert _values(less) == [("b", 8.0), ("c", 6.0), ("e", 2.0)]
        assert _values(BinOp(CmpOp.LTE, Scalar(4.0), "n")) == [("c", 4.0), ("e", 8.0)]
        assert all(math.isnan(v) for _i, v in _values(BinOp(ArithOp.DIV, "n", Scalar(0.0))))

    def test_set_operators(self):
        assert [i for i, _v in _values(SetExpr(SetOp.AND, "m", "n"))] == ["b", "c"]
        assert [i for i, _v in _values(SetExpr(SetOp.UNLESS, "m", "n"))] == ["a", "d"]
        # `or`: the whole left side, then what only the right side has.
        assert [i for i, _v in _values(SetExpr(SetOp.OR, "m", "n"))] == ["a", "b", "c", "d", "e"]

    def test_topk_ranks_by_value_then_labels_and_instant_keeps_the_rank(self):
        assert _values(TopK(2, "n")) == [("e", 8.0), ("c", 4.0)]
        assert _values(TopK(2, "n", bottom=True)) == [("b", 2.0), ("c", 4.0)]
        assert [s.labels["i"] for s in reference_instant(TopK(2, "n"), 0, _by_name)] == ["e", "c"]
        (first, second) = reference_range(TopK(1, "n"), 0, 1, 1, _by_name)[0].points
        assert first == (0, 8.0) and second == (1, 8.0)
