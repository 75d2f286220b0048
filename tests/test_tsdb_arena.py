"""The TSDB's arenas against a dict-of-lists reference.

Each metric name's series live end to end in one pair of flat arrays
(``repro.tsdb.storage``); a series' segment moves when it fills, the
arena repacks when its free tail runs out, retention repacks it without
what it dropped, and the downsampler rewrites a series in place.  None
of that may show: after any interleaving of ingest (out-of-order rejects,
equal timestamps), selects, retention, downsample sweeps and the
re-registration of an emptied series, the store holds what a list per
series holds, and every selection handed out still shows what it showed.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.labels import METRIC_NAME_LABEL, LabelSet, label_matcher
from repro.common.simclock import SimClock
from repro.omni.downsample import ROLLUP_LABEL, DownsamplePolicy, Downsampler
from repro.tsdb import storage
from repro.tsdb.storage import MIN_ROOM, TimeSeriesStore

AFTER, BUCKET = 50, 10

SELECTORS = [
    (),
    (label_matcher(METRIC_NAME_LABEL, "=", "a"),),
    (label_matcher(METRIC_NAME_LABEL, "=~", "a|b"),),
    (label_matcher("k", "=", "1"),),
    (label_matcher("k", "!=", "1"), label_matcher(METRIC_NAME_LABEL, "!=", "c")),
    (label_matcher(ROLLUP_LABEL, "=", "min"),),
]


class Reference:
    """Per series (full label set), its ``[ts, value]`` rows."""

    def __init__(self):
        self.series: dict[LabelSet, list[tuple[int, float]]] = {}

    def ingest(self, name, labels, value, ts) -> bool:
        full = LabelSet({**labels, METRIC_NAME_LABEL: name})
        rows = self.series.setdefault(full, [])
        if rows and ts < rows[-1][0]:
            return False
        rows.append((ts, value))
        return True

    def select(self, matchers, start, end):
        out = []
        for labels in sorted(self.series, key=LabelSet.items_tuple):
            if all(m.matches(labels) for m in matchers):
                rows = [r for r in self.series[labels] if start <= r[0] < end]
                if rows:
                    out.append((labels, [t for t, _ in rows], [v for _, v in rows]))
        return out

    def delete_before(self, cutoff) -> int:
        dropped = 0
        for labels, rows in list(self.series.items()):
            kept = [r for r in rows if r[0] >= cutoff]
            dropped += len(rows) - len(kept)
            if kept:
                self.series[labels] = kept
            else:
                del self.series[labels]
        return dropped

    def downsample(self, now) -> int:
        """The sweep, spelt out: aged raw samples after the last rolled
        bucket collapse into one mean per bucket, min and max written to
        the series' rollup siblings."""
        cutoff = (now - AFTER) // BUCKET * BUCKET
        aged = {
            labels: [r for r in rows if r[0] < cutoff]
            for labels, rows in self.series.items()
            if rows[0][0] < cutoff
        }
        rolled = {
            labels.without(ROLLUP_LABEL): rows[-1][0]
            for labels, rows in aged.items()
            if labels.get(ROLLUP_LABEL) == "min"
        }
        saved = 0
        for labels in sorted(aged, key=LabelSet.items_tuple):
            if ROLLUP_LABEL in labels:
                continue
            rows = aged[labels]
            last = rolled.get(labels)
            region = rows if last is None else [r for r in rows if r[0] >= last + BUCKET]
            if not region:
                continue
            groups: list[list[tuple[int, float]]] = []
            for row in region:
                if groups and groups[-1][0][0] // BUCKET == row[0] // BUCKET:
                    groups[-1].append(row)
                else:
                    groups.append([row])
            name = labels[METRIC_NAME_LABEL]
            means = []
            for group in groups:
                start = group[0][0] // BUCKET * BUCKET
                values = np.array([v for _, v in group])
                means.append((start, float(values.mean())))
                for kind, value in (("min", values.min()), ("max", values.max())):
                    self.ingest(name, {**labels.with_labels(**{ROLLUP_LABEL: kind})}, float(value), start)
            all_rows = self.series[labels]
            i = all_rows.index(region[0])
            self.series[labels] = all_rows[:i] + means + all_rows[i + len(region):]
            saved += len(region) - len(groups)
        return saved


class ArenaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = TimeSeriesStore()
        self.reference = Reference()
        self.clock = SimClock(0)
        self.downsampler = Downsampler(
            self.store, self.clock, DownsamplePolicy(downsample_after_ns=AFTER, bucket_ns=BUCKET)
        )
        #: Selections handed out, with what they showed then.
        self.views = []

    @rule(
        name=st.sampled_from("abc"),
        k=st.sampled_from(["0", "1", "2", "3"]),
        ts=st.integers(0, 400),
        value=st.sampled_from([0.0, 1.5, -2.0, 7.25, 1e9]),
        as_labelset=st.booleans(),
        times=st.integers(1, 40),
    )
    def ingest(self, name, k, ts, value, as_labelset, times):
        """``times`` samples of one series from ``ts`` on, some at equal
        timestamps: enough to fill segments and run tails out."""
        labels = {"k": k}
        for i in range(times):
            at = ts + i // 2
            key = LabelSet(labels) if as_labelset else dict(labels)
            assert self.store.ingest(name, key, value + i, at) == self.reference.ingest(
                name, labels, value + i, at
            )

    @rule(selector=st.sampled_from(SELECTORS), start=st.integers(-10, 450), width=st.integers(1, 500))
    def select(self, selector, start, width):
        got = self.store.select(selector, start, start + width)
        want = self.reference.select(selector, start, start + width)
        shown = [(labels, ts.tolist(), values.tolist()) for labels, ts, values in got]
        assert shown == want
        self.views.append((got, shown))
        del self.views[:-20]

    @rule(cutoff=st.integers(0, 450))
    def delete_before(self, cutoff):
        assert self.store.delete_before(cutoff) == self.reference.delete_before(cutoff)

    @precondition(lambda self: self.clock.now_ns < 2000)
    @rule(advance=st.integers(0, 120))
    def downsample(self, advance):
        self.clock.advance(advance)
        assert self.downsampler.sweep() == self.reference.downsample(self.clock.now_ns)

    @invariant()
    def holds_what_the_reference_holds(self):
        everything = self.store.select([], -(2**63), 2**62)
        assert [(labels, ts.tolist(), values.tolist()) for labels, ts, values in everything] == [
            row for row in self.reference.select([], -(2**63), 2**62)
        ]
        assert self.store.series_count() == len(self.reference.series)
        assert self.store.sample_count() == sum(map(len, self.reference.series.values()))
        assert self.store.metric_names() == sorted(
            {labels[METRIC_NAME_LABEL] for labels in self.reference.series}
        )

    @invariant()
    def views_handed_out_never_change(self):
        for got, shown in self.views:
            assert [(labels, ts.tolist(), values.tolist()) for labels, ts, values in got] == shown


ArenaMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestArenaAgainstReference = ArenaMachine.TestCase


@given(
    st.lists(st.lists(st.integers(0, 50), max_size=80), min_size=1, max_size=12),
    st.lists(st.integers(0, 20), min_size=12, max_size=12),
    st.integers(-5, 60),
)
@settings(max_examples=200, deadline=None)
def test_a_segmented_search_is_a_searchsorted_per_segment(segments, rooms, target):
    """Segments of any length with any room after them, laid end to end
    as an arena lays them: the search finds, per segment, what
    ``searchsorted`` finds in it alone."""
    ts, lo, hi = [], [], []
    for held, room in zip(segments, rooms):
        lo.append(len(ts))
        ts.extend(sorted(held))
        ts.extend([storage._UNUSED] * room)
        hi.append(len(ts))
    ts = np.array(ts + [storage._UNUSED], dtype=np.int64)
    lo, hi = np.array(lo), np.array(hi)
    got = storage._Segments(lo, hi).search(ts, np.array(target))
    want = [a + int(np.searchsorted(ts[a:b], target)) for a, b in zip(lo, hi)]
    assert got.tolist() == want


def test_what_an_arena_allocates_stays_near_what_it_holds():
    """Staggered series — one grows fast, the others one sample now and
    then, new ones keep arriving: the arrays of a name never hold more
    than about twice its samples, plus about two new series' rooms a
    series (its own, and the free tail kept for as many new series)."""
    store = TimeSeriesStore()
    for step in range(3000):
        store.ingest("m", {"s": "fast"}, 1.0, step)
        if step % 7 == 0:
            store.ingest("m", {"s": str(step % 97)}, 1.0, step)
        if step % 50 == 0:
            store.ingest("m", {"s": f"new{step}"}, 1.0, step)
        arena = store._arenas["m"]
        held = store.sample_count()
        assert len(arena.ts) - 1 <= 2.5 * held + 2.5 * MIN_ROOM * len(arena.series)
