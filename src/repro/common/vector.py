"""Instant vectors: the result types and the one evaluator above a leaf.

Both query engines — LogQL (:mod:`repro.loki.logql`) and the PromQL subset
(:mod:`repro.tsdb.promql`) — produce the same result shapes, which is what
lets Grafana and the alert rulers treat "logs turned into metrics" exactly
like native metrics (the paper's central trick).  They produce them with
the same code, too: :class:`Evaluation` evaluates every node of
:mod:`repro.common.vectorlang` on (series × steps) arrays, and a language
adds only ``leaf()`` — how one of its own nodes becomes a :class:`Vector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.common.errors import QueryError
from repro.common.labels import EMPTY_LABELS, METRIC_NAME_LABEL, LabelSet
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
    VectorExpr,
    VectorOp,
)


@dataclass(frozen=True)
class Sample:
    """One (labels, value) pair of an instant vector at an evaluation time."""

    labels: LabelSet
    value: float
    timestamp_ns: int


@dataclass(frozen=True)
class Series:
    """One labelled series of a range query: ``[(ts_ns, value), ...]``."""

    labels: LabelSet
    points: tuple[tuple[int, float], ...]

    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def timestamps(self) -> list[int]:
        return [t for t, _ in self.points]


@dataclass(frozen=True)
class Vector:
    """An instant vector at every step of a query at once: row *i* is
    one series, column *j* one step.  ``values`` means nothing where
    ``present`` is false.  Vectors are shared (a node that occurs twice
    is evaluated once), so operators build new arrays and never write
    into an operand's."""

    labels: list[LabelSet]
    values: np.ndarray  # (series, steps) float64
    present: np.ndarray  # (series, steps) bool


def instant_grid(time_ns: int) -> np.ndarray:
    """The grid of an instant query: one step."""
    return np.array([time_ns], dtype=np.int64)


def range_grid(start_ns: int, end_ns: int, step_ns: int) -> np.ndarray:
    """The steps of a range query: ``start``, then every ``step`` up to
    and including ``end``."""
    if step_ns <= 0:
        raise QueryError("step must be positive")
    if end_ns < start_ns:
        raise QueryError("end before start")
    return np.arange(start_ns, end_ns + 1, step_ns, dtype=np.int64)


_COMPARE = {
    CmpOp.EQ: np.equal,
    CmpOp.NEQ: np.not_equal,
    CmpOp.GT: np.greater,
    CmpOp.GTE: np.greater_equal,
    CmpOp.LT: np.less,
    CmpOp.LTE: np.less_equal,
}
_ARITH = {ArithOp.ADD: np.add, ArithOp.SUB: np.subtract, ArithOp.MUL: np.multiply}


def _arith(op: ArithOp, a, b) -> np.ndarray:
    if op is ArithOp.DIV:  # x / 0 is NaN, as `ArithOp.apply` has it
        return np.where(np.not_equal(b, 0), np.divide(a, b), np.nan)
    return _ARITH[op](a, b)


def _join_keys(vector: Vector) -> list[LabelSet]:
    """What binary operators match series on: all labels but the name."""
    return [labels.nameless() for labels in vector.labels]


def _grouped(expr: VectorAgg, labels: list[LabelSet]) -> tuple[list[LabelSet], np.ndarray]:
    """An aggregation's groups in ascending label order, and each row's
    group.  A row's key is the tuple of what it keeps; the group's label
    set is worked out once per distinct key, not once per row."""
    if expr.mode is GroupMode.NONE:
        groups = [EMPTY_LABELS] if labels else []
        return groups, np.zeros(len(labels), dtype=np.intp)
    if expr.mode is GroupMode.BY:
        by = [name for name in expr.labels if name != METRIC_NAME_LABEL]
        # A column of values per name, then a row's key across them; any
        # row of a key projects to the same label set.
        columns = [[row.get(name) for row in labels] for name in by]
        keys = list(zip(*columns)) if by else [()] * len(labels)
        group_of_key = {key: row.project(by) for key, row in dict(zip(keys, labels)).items()}
    else:
        # The key is the kept part of a row's canonical items: canonical
        # itself, so it is the group's label set as it stands.
        drop = {METRIC_NAME_LABEL, *expr.labels}
        keys = [
            tuple([pair for pair in items if pair[0] not in drop])
            for items in map(LabelSet.items_tuple, labels)
        ]
        group_of_key = {key: LabelSet._trusted(key) for key in dict.fromkeys(keys)}
    groups = sorted(group_of_key.values(), key=LabelSet.items_tuple)
    number = {group: g for g, group in enumerate(groups)}
    return groups, np.array([number[group_of_key[key]] for key in keys], dtype=np.intp)


def _extremes(
    op: VectorOp, group_of: np.ndarray, groups: int, vector: Vector
) -> tuple[np.ndarray, np.ndarray]:
    """Python's ``min()``/``max()`` of each group's present values at
    every step, bit for bit: the first value, replaced only by a
    strictly better one.  So a NaN is the answer only as the group's
    first value, and the first of ``0.0`` and ``-0.0`` stays.  The
    answer is the first present row's value if that is NaN, else the
    first row equal to the extreme of the rows that are not NaN — three
    ``reduceat`` over rows sorted stably by group, however many rows."""
    rows = len(group_of)
    order = np.argsort(group_of, kind="stable")
    sorted_groups = group_of[order]
    starts = np.searchsorted(sorted_groups, np.arange(groups))
    values, present = vector.values[order], vector.present[order]
    counted = present & ~np.isnan(values)
    extreme, fill = (np.minimum, np.inf) if op is VectorOp.MIN else (np.maximum, -np.inf)
    best = extreme.reduceat(np.where(counted, values, fill), starts)
    position = np.arange(rows)[:, None]
    first = np.minimum.reduceat(np.where(present, position, rows), starts)
    hit = counted & (values == best[sorted_groups])
    first_hit = np.minimum.reduceat(np.where(hit, position, rows), starts)
    # Flat indexes into `values`; an absent cell's (row `rows`) is clipped
    # and its value never looked at.
    steps = np.arange(values.shape[1])
    first_value = values.take(first * len(steps) + steps, mode="clip")
    chosen = np.where(np.isnan(first_value), first, first_hit)
    return values.take(chosen * len(steps) + steps, mode="clip"), first < rows


class Evaluation:
    """Any number of expressions over one grid of steps: a query, or a
    rule group at one instant.

    **Every node is evaluated once.**  Nodes are values, so the vector of
    a node — a leaf, whatever the language's ``leaf()`` turns into a
    :class:`Vector`, or an operator above one — is kept under the node
    and handed to whoever asks next: the same leaf twice in a query, the
    same sub-expression in two rules of a group.  Everything is for every
    step at once, arithmetic on (series × steps) arrays; an instant query
    is the one-step case.  Nothing is ever dropped from the table, so an
    evaluation must not outlive a write to what its leaves read.

    **The float-order rule.**  A result depends on the windows only,
    never on the grid, on what else was evaluated beside it or on which
    Python runs it: a vector is consumed in row order — ascending label
    order out of a leaf (which owes that) and out of an aggregation,
    whose groups are sorted — and ``sum``/``avg`` add their rows in that
    order, one IEEE addition at a time.  ``min``/``max`` answer Python's
    ``min()``/``max()`` over the rows in that order, bit for bit.
    """

    def __init__(self, steps: np.ndarray) -> None:
        self.steps = steps
        self._vectors: dict[VectorExpr, Vector] = {}

    def leaf(self, expr: VectorExpr) -> Vector:
        """The vector of one of the language's own nodes at every step:
        rows in ascending label order, ``present`` where the series has a
        value.  Raises :class:`QueryError` for a node that is no vector."""
        raise NotImplementedError

    # -- results -------------------------------------------------------------
    def samples(self, expr: VectorExpr) -> list[Sample]:
        """The vector at the grid's one step, in label order."""
        (time_ns,) = self.steps.tolist()
        vector = self._evaluated(expr)
        result = [
            Sample(labels, value, time_ns)
            for labels, value, here in zip(
                vector.labels,
                vector.values[:, 0].tolist(),
                vector.present[:, 0].tolist(),
            )
            if here
        ]
        if isinstance(expr, TopK):
            # Rank order is the point of topk/bottomk.
            result.sort(
                key=lambda s: (s.value, s.labels.items_tuple()),
                reverse=not expr.bottom,
            )
        else:
            result.sort(key=lambda s: s.labels.items_tuple())
        return result

    def series(self, expr: VectorExpr) -> list[Series]:
        """One series per label set with a value at any step, in label
        order, each holding the steps it has a value at."""
        vector = self._evaluated(expr)
        points: dict[LabelSet, list[tuple[int, float]]] = {}
        times = self.steps.tolist()
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

    def _evaluated(self, expr: VectorExpr) -> Vector:
        # Values under a false `present` are never looked at, so whatever
        # arithmetic makes of them is not worth a warning.
        with np.errstate(all="ignore"):
            return self.vector(expr)

    # -- the algebra -----------------------------------------------------------
    def vector(self, expr: VectorExpr) -> Vector:
        vector = self._vectors.get(expr)
        if vector is None:
            vector = self._vectors[expr] = self._evaluate(expr)
        return vector

    def _evaluate(self, expr: VectorExpr) -> Vector:
        if isinstance(expr, VectorAgg):
            return self._aggregate(expr)
        if isinstance(expr, BinOp):
            if isinstance(expr.lhs, Scalar) or isinstance(expr.rhs, Scalar):
                return self._scalar_binop(expr)
            return self._vector_binop(expr)
        if isinstance(expr, SetExpr):
            return self._set_op(expr)
        if isinstance(expr, TopK):
            return self._topk(expr)
        return self.leaf(expr)

    def _empty(self, rows: int = 0) -> tuple[np.ndarray, np.ndarray]:
        shape = (rows, len(self.steps))
        return np.zeros(shape), np.zeros(shape, dtype=bool)

    def _aggregate(self, expr: VectorAgg) -> Vector:
        inner = self.vector(expr.expr)
        groups, group_of = _grouped(expr, inner.labels)
        if not groups:
            return Vector(groups, *self._empty())
        if expr.op in (VectorOp.MIN, VectorOp.MAX):
            return Vector(groups, *_extremes(expr.op, group_of, len(groups), inner))
        values, _ = self._empty(len(groups))
        count = np.zeros(values.shape, dtype=np.int64)
        np.add.at(count, group_of, inner.present.astype(np.int64))
        if expr.op is VectorOp.COUNT:
            values = count.astype(np.float64)
        else:
            # Row by row, top to bottom: `ufunc.at` is unbuffered, so each
            # step's vector is added up in row order, one IEEE addition at
            # a time, for every step at once.
            np.add.at(values, group_of, np.where(inner.present, inner.values, 0.0))
            if expr.op is VectorOp.AVG:
                values /= np.maximum(count, 1)
        return Vector(groups, values, count > 0)

    def _scalar_binop(self, expr: BinOp) -> Vector:
        scalar_left = isinstance(expr.lhs, Scalar)
        vector = self.vector(expr.rhs if scalar_left else expr.lhs)
        scalar = (expr.lhs if scalar_left else expr.rhs).value
        a, b = (scalar, vector.values) if scalar_left else (vector.values, scalar)
        if isinstance(expr.op, CmpOp):  # a comparison filters
            return Vector(
                vector.labels, vector.values, vector.present & _COMPARE[expr.op](a, b)
            )
        return Vector(vector.labels, _arith(expr.op, a, b), vector.present)

    def _vector_binop(self, expr: BinOp) -> Vector:
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
            return Vector(
                [lhs.labels[i] for i in rows], a, both & _COMPARE[expr.op](a, b)
            )
        # Arithmetic drops the metric name (Prometheus semantics).
        return Vector([lkeys[i] for i in rows], _arith(expr.op, a, b), both)

    def _one_per_key(
        self, vector: Vector, keys: list[LabelSet], problem: str
    ) -> Vector:
        """``vector`` with one row per join key.  Rows sharing a key are
        merged if they take turns; two of them present at one step is the
        duplicate Prometheus refuses to match."""
        if len(set(keys)) == len(keys):
            return Vector(keys, vector.values, vector.present)
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
        return Vector(list(rows_of), values, present)

    def _held_by(
        self, keys: list[LabelSet], other: Vector, other_keys: list[LabelSet]
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

    def _set_op(self, expr: SetExpr) -> Vector:
        lhs, rhs = self.vector(expr.lhs), self.vector(expr.rhs)
        lkeys, rkeys = _join_keys(lhs), _join_keys(rhs)
        if expr.op is SetOp.OR:
            extra = rhs.present & ~self._held_by(rkeys, lhs, lkeys)
            return Vector(
                lhs.labels + rhs.labels,
                np.concatenate([lhs.values, rhs.values]),
                np.concatenate([lhs.present, extra]),
            )
        matched = self._held_by(lkeys, rhs, rkeys)
        if expr.op is SetOp.UNLESS:
            matched = ~matched
        return Vector(lhs.labels, lhs.values, lhs.present & matched)

    def _topk(self, expr: TopK) -> Vector:
        inner = self.vector(expr.expr)
        # Each row's place in ascending label order: the tie-break.
        in_order = sorted(
            range(len(inner.labels)), key=lambda row: inner.labels[row].items_tuple()
        )
        rank = np.empty(len(in_order), dtype=np.intp)
        rank[in_order] = np.arange(len(in_order))
        keep = np.zeros_like(inner.present)
        for step in range(len(self.steps)):
            rows = np.flatnonzero(inner.present[:, step])
            if len(rows) > expr.k:
                # Ascending by (value, labels); topk takes the far end.
                ranked = rows[np.lexsort((rank[rows], inner.values[rows, step]))]
                rows = ranked[: expr.k] if expr.bottom else ranked[-expr.k :]
            keep[rows, step] = True
        return Vector(inner.labels, inner.values, keep)
