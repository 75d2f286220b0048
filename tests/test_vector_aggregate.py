"""Vector aggregation: the array kernel against the row loop it replaced.

``Evaluation._aggregate`` groups a vector's rows by their projected
labels and reduces every step at once.  ``min``/``max`` take three
``reduceat`` over rows sorted by group, and must still answer what
Python's ``min()``/``max()`` answer bit for bit: the first present value,
replaced only by a strictly better one, so a NaN wins only as a group's
first value and the first of ``0.0``/``-0.0`` stays.  The reference here
is the evaluator's aggregation as it was before, a Python loop over rows
kept verbatim; the differential draws the values that loop is exact on
and the range-equivalence suites' strategies never draw: NaN, both
zeros, both infinities and absent cells.

The work budgets below count calls, not time: a group's label set is
worked out once per group, and a ``min``/``max`` makes as many numpy
calls over 32 rows as over 512.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common import vector as vector_module
from repro.common.labels import EMPTY_LABELS, METRIC_NAME_LABEL, LabelSet
from repro.common.vector import Evaluation, Vector
from repro.common.vectorlang import GroupMode, VectorAgg, VectorOp
from tests.counting import counted, numpy_through


class Given(Evaluation):
    """An evaluation whose one leaf, ``"x"``, is a vector handed in."""

    def __init__(self, vector: Vector) -> None:
        super().__init__(np.arange(vector.values.shape[1], dtype=np.int64))
        self.given = vector

    def leaf(self, expr):
        assert expr == "x"
        return self.given


def row_loop_aggregate(self: Evaluation, expr: VectorAgg) -> Vector:
    """``Evaluation._aggregate`` before the array kernel, verbatim."""
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
        # Row by row, top to bottom: `ufunc.at` is unbuffered, so each
        # step's vector is added up in row order, one IEEE addition at
        # a time, for every step at once.
        np.add.at(values, group_of, np.where(inner.present, inner.values, 0.0))
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
    return Vector(groups, values, count > 0)


def bits(value: float) -> tuple[str, float]:
    """A float as ``==`` cannot blur it: NaN equal to NaN, ``-0.0``
    apart from ``0.0``."""
    return float.hex(value), math.copysign(1.0, value)


def cells(vector: Vector) -> list:
    """Each row's labels and, per step, the value's bits where present."""
    return [
        (labels, [bits(v) if here else None for v, here in zip(values, present)])
        for labels, values, present in zip(
            vector.labels, vector.values.tolist(), vector.present.tolist()
        )
    ]


SPECIAL = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 2.5)
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats())

GROUPINGS = (
    (GroupMode.NONE, ()),
    (GroupMode.BY, ("g",)),
    (GroupMode.BY, ("g", "h")),
    (GroupMode.BY, (METRIC_NAME_LABEL,)),
    (GroupMode.BY, ()),
    (GroupMode.WITHOUT, ("i",)),
    (GroupMode.WITHOUT, ("g", "i")),
    (GroupMode.WITHOUT, ()),
)


@st.composite
def vectors(draw) -> Vector:
    """A leaf's vector: rows in ascending label order, some sharing a
    label set once the name is dropped, any cell absent."""
    steps = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["m", "n"]),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from(["x", "y"]),
                st.sampled_from(["0", "1"]),
            ),
            max_size=10,
            unique=True,
        )
    )
    labels = sorted(
        (LabelSet({METRIC_NAME_LABEL: m, "g": g, "h": h, "i": i}) for m, g, h, i in rows),
        key=LabelSet.items_tuple,
    )
    shape = (len(labels), steps)
    values = draw(st.lists(VALUES, min_size=shape[0] * steps, max_size=shape[0] * steps))
    present = draw(
        st.lists(st.booleans(), min_size=shape[0] * steps, max_size=shape[0] * steps)
    )
    return Vector(
        labels,
        np.array(values, dtype=np.float64).reshape(shape),
        np.array(present, dtype=bool).reshape(shape),
    )


class TestKernelIsTheRowLoop:
    @given(
        vector=vectors(),
        op=st.sampled_from(list(VectorOp)),
        grouping=st.sampled_from(GROUPINGS),
    )
    @settings(max_examples=600, deadline=None)
    def test_every_aggregation_bit_for_bit(self, vector, op, grouping):
        expr = VectorAgg(op, "x", *grouping)
        with np.errstate(all="ignore"):
            got = Given(vector).vector(expr)
            want = row_loop_aggregate(Given(vector), expr)
        assert cells(got) == cells(want)

    def test_a_nan_wins_only_first_and_the_first_zero_stays(self):
        nan = math.nan
        labels = [LabelSet({"i": str(i)}) for i in range(3)]
        vector = Vector(
            labels,
            np.array([[nan, 1.0, 0.0, -0.0], [2.0, nan, -0.0, 0.0], [1.0, 3.0, 0.0, -0.0]]),
            np.ones((3, 4), dtype=bool),
        )
        wants = {VectorOp.MAX: [nan, 3.0, 0.0, -0.0], VectorOp.MIN: [nan, 1.0, 0.0, -0.0]}
        for op, want in wants.items():
            [(_labels, got)] = cells(Given(vector).vector(VectorAgg(op, "x")))
            assert got == [bits(v) for v in want], op


def node_vector(rows: int, cabinets: int = 8) -> Vector:
    labels = sorted(
        (
            LabelSet(
                {
                    METRIC_NAME_LABEL: "node_temp_celsius",
                    "cabinet": f"x{1000 + i % cabinets}",
                    "node": f"nid{i:06d}",
                }
            )
            for i in range(rows)
        ),
        key=LabelSet.items_tuple,
    )
    rng = np.random.default_rng(rows)
    return Vector(labels, rng.normal(50.0, 5.0, (rows, 3)), rng.random((rows, 3)) < 0.9)


class TestWorkBudget:
    def test_a_group_label_set_is_worked_out_once_per_group(self):
        vector = node_vector(512)
        for op in VectorOp:
            with counted(LabelSet, "project") as project:
                result = Given(vector).vector(VectorAgg(op, "x", GroupMode.BY, ("cabinet",)))
            assert len(result.labels) == 8
            assert project.call_count == 8, op
        for grouping in ((GroupMode.BY, ("cabinet",)), (GroupMode.WITHOUT, ("node",))):
            with counted(LabelSet, "_trusted") as built:
                result = Given(vector).vector(VectorAgg(VectorOp.MAX, "x", *grouping))
            assert len(result.labels) == built.call_count == 8, grouping

    def test_min_and_max_make_as_many_numpy_calls_over_32_rows_as_over_512(self):
        for op in (VectorOp.MIN, VectorOp.MAX):
            for grouping in ((GroupMode.NONE, ()), (GroupMode.BY, ("cabinet",))):
                expr = VectorAgg(op, "x", *grouping)
                counts = []
                for rows in (32, 512):
                    evaluation = Given(node_vector(rows))
                    with numpy_through(vector_module) as calls:
                        evaluation.vector(expr)
                    counts.append(calls)
                small, large = counts
                assert small["minimum.reduceat"] and small == large, (op, grouping)
