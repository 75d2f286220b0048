"""An error budget keeps running sums: a read is the newest snapshot's
sums less the baseline's, however long the window.  The reference is the
walk it replaced, kept here: every pair of consecutive retained
snapshots, a counter reset contributing zero.

* integer-valued counts — what every built-in source and the
  BURN_INJECTION fault produce — read back bit for bit;
* fractional ones within a tight relative tolerance;
* a read over a full 30-day window of 30 s snapshots touches the two
  ends of the window and nothing between them.
"""

import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.simclock import minutes, seconds
from repro.slo import SLO, ErrorBudget, SliSnapshot


def walked_totals(budget: ErrorBudget) -> tuple[float, float]:
    """``window_totals`` as it was: one step per retained snapshot."""
    snapshots = [(ts, good, total) for ts, good, total, *_ in budget._snapshots]
    if len(snapshots) < 2:
        return (0.0, 0.0)
    bad = 0.0
    total = 0.0
    prev = snapshots[0]
    for snap in snapshots[1:]:
        d_total = snap[2] - prev[2]
        d_good = snap[1] - prev[1]
        if d_total >= 0 and d_good >= 0:
            total += d_total
            bad += max(d_total - d_good, 0.0)
        prev = snap
    return (bad, total)


#: Per observation: the gap since the last, and (good, bad) increments —
#: or None for a counter reset back to zero.
steps_st = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.one_of(st.none(), st.tuples(st.integers(0, 1000), st.integers(0, 50))),
    ),
    min_size=1,
    max_size=80,
)


def replay(steps, scale: float) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Observe ``steps`` (counts times ``scale``) on a 10-minute budget;
    after each, the budget's totals beside the walked ones."""
    budget = ErrorBudget(SLO(name="a", description="x", objective=0.99, window="10m"))
    good = total = 0.0
    t = 0
    reads = []
    for gap, step in steps:
        t += minutes(gap)
        if step is None:
            good = total = 0.0
        else:
            good += step[0] * scale
            total += (step[0] + step[1]) * scale
        budget.observe(t, SliSnapshot(good, total))
        reads.append((budget.window_totals(), walked_totals(budget)))
    return reads


class TestRunningSumsEqualTheWalk:
    @settings(max_examples=200, deadline=None)
    @given(steps=steps_st)
    def test_integer_counts_bit_for_bit(self, steps):
        for got, want in replay(steps, 1.0):
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @settings(max_examples=200, deadline=None)
    @given(steps=steps_st, scale=st.sampled_from([0.1, 0.25, 1 / 3, 2.7]))
    def test_fractional_counts_within_rounding(self, steps, scale):
        for got, want in replay(steps, scale):
            for g, w in zip(got, want):
                assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9)

    def test_the_pool_holds_what_it_says(self):
        """Resets and eviction both happen in the generated runs."""
        steps = [(0, (0, 0)), (1, (100, 5)), (1, None), (1, (50, 1)), (20, (10, 0)), (1, (10, 2))]
        reads = replay(steps, 1.0)
        assert reads[2][0] == reads[1][0] == (5.0, 105.0)  # the reset added nothing
        # At 24 min the baseline is the 3-min snapshot: the rest aged out.
        assert reads[-1][0] == reads[-1][1] == (2.0, 22.0)


class WatchedSnapshots(deque):
    """A snapshot deque that refuses to be walked."""

    reads: list

    def __iter__(self):
        raise AssertionError("a read walked the window")

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


class TestAReadDoesNotWalk:
    def test_a_full_window_is_read_at_its_ends(self):
        budget = ErrorBudget(SLO(name="a", description="x", objective=0.999, window="30d"))
        step = seconds(30)
        for i in range(86_400):
            budget.observe(i * step, SliSnapshot(float(999 * i), float(1000 * i)))
        assert len(budget._snapshots) == 86_400
        watched = WatchedSnapshots(budget._snapshots)
        watched.reads = []
        budget._snapshots = watched
        assert budget.remaining_ratio() == pytest.approx(0.0, abs=1e-9)
        assert budget.window_totals() == (86_399.0, 86_399_000.0)
        assert set(watched.reads) <= {0, -1}
