"""Property-based equivalence: query engines vs brute-force references.

The LogQL and PromQL engines take indexed shortcuts (posting lists,
chunk time-bounds, searchsorted windows).  These tests pit them against
trivially-correct brute-force implementations on randomized corpora —
any indexing bug that changes results surfaces here.
"""

from hypothesis import given, settings, strategies as st

from repro.common.labels import LabelSet, label_matcher
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import LokiStore
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.storage import TimeSeriesStore

# --------------------------------------------------------------------------
# Corpus strategies
# --------------------------------------------------------------------------
_WORDS = ("error", "ok", "leak", "offline", "retry", "flush")
_APPS = ("fm", "api", "slurmd")

log_records = st.lists(
    st.tuples(
        st.integers(0, 10_000),  # timestamp
        st.sampled_from(_APPS),  # app label
        st.sampled_from(("a", "b")),  # shard label
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4),  # line words
    ),
    min_size=1,
    max_size=60,
)

metric_samples = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.sampled_from(_APPS),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _build_log_store(records):
    store = LokiStore()
    by_stream: dict[LabelSet, list[LogEntry]] = {}
    for ts, app, shard, words in records:
        labels = LabelSet({"app": app, "shard": shard})
        by_stream.setdefault(labels, []).append(LogEntry(ts, " ".join(words)))
    accepted: dict[LabelSet, list[LogEntry]] = {}
    for labels, entries in by_stream.items():
        entries.sort()
        store.push(PushRequest.single(labels, [(e.timestamp_ns, e.line) for e in entries]))
        accepted[labels] = entries
    return store, accepted


class TestLogQLEquivalence:
    @given(log_records, st.sampled_from(_APPS), st.sampled_from(_WORDS),
           st.integers(0, 10_000), st.integers(1, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_log_query_matches_bruteforce(self, records, app, word, start, width):
        store, accepted = _build_log_store(records)
        end = start + width
        engine = LogQLEngine(store)
        got = engine.query_logs(
            f'{{app="{app}"}} |= "{word}"', start, end
        )
        got_flat = sorted(
            (
                (labels, e.timestamp_ns, e.line)
                for labels, entries in got
                for e in entries
            ),
            key=lambda r: (r[0].items_tuple(), r[1], r[2]),
        )

        expected = sorted(
            (
                (labels, e.timestamp_ns, e.line)
                for labels, entries in accepted.items()
                if labels["app"] == app
                for e in entries
                if start <= e.timestamp_ns < end and word in e.line
            ),
            key=lambda r: (r[0].items_tuple(), r[1], r[2]),
        )
        assert got_flat == expected

    @given(log_records, st.sampled_from(_WORDS), st.integers(1, 10_000),
           st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_count_over_time_matches_bruteforce(self, records, word, range_ns, at):
        store, accepted = _build_log_store(records)
        engine = LogQLEngine(store)
        got = engine.query_instant(
            f'sum(count_over_time({{app=~".+"}} |= "{word}" [{_as_dur(range_ns)}]))',
            at,
        )
        window_ns = max(1, (range_ns + 999_999) // 1_000_000) * 1_000_000
        expected = sum(
            1
            for entries in accepted.values()
            for e in entries
            if at - window_ns < e.timestamp_ns <= at and word in e.line
        )
        if expected == 0:
            assert got == []
        else:
            assert len(got) == 1 and got[0].value == float(expected)


def _as_dur(ns: int) -> str:
    # Tests use tiny integer timestamps; express the window in ms ceil.
    ms = max(1, (ns + 999_999) // 1_000_000)
    return f"{ms}ms"


class TestPromQLEquivalence:
    @given(metric_samples, st.sampled_from(_APPS), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_instant_selector_matches_bruteforce(self, samples, app, at):
        store = TimeSeriesStore()
        accepted: dict[str, list[tuple[int, float]]] = {}
        by_series: dict[str, list[tuple[int, float]]] = {}
        for ts, sample_app, value in samples:
            by_series.setdefault(sample_app, []).append((ts, value))
        for series_app, points in by_series.items():
            points.sort()
            for ts, value in points:
                store.ingest("m", {"app": series_app}, value, ts)
            accepted[series_app] = points
        engine = PromQLEngine(store, lookback_ns=5_000)
        got = engine.query_instant(f'm{{app="{app}"}}', at)

        candidates = [
            (ts, v)
            for ts, v in accepted.get(app, [])
            if at - 5_000 < ts <= at
        ]
        if not candidates:
            assert got == []
        else:
            assert len(got) == 1
            assert got[0].value == candidates[-1][1]

    @given(metric_samples, st.integers(1, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_sum_over_time_matches_bruteforce(self, samples, range_ns, at):
        store = TimeSeriesStore()
        points = sorted((ts, v) for ts, _, v in samples)
        kept = []
        for ts, value in points:
            if store.ingest("g", {}, value, ts):
                kept.append((ts, value))
        engine = PromQLEngine(store)
        got = engine.query_instant(f"sum_over_time(g[{_as_dur(range_ns)}])", at)
        window_ns = max(1, (range_ns + 999_999) // 1_000_000) * 1_000_000
        expected = [v for ts, v in kept if at - window_ns < ts <= at]
        if not expected:
            assert got == []
        else:
            # numpy's pairwise summation may round differently from sum().
            import pytest

            assert got[0].value == pytest.approx(sum(expected), rel=1e-9, abs=1e-9)


class TestIndexEquivalence:
    @given(log_records)
    @settings(max_examples=40, deadline=None)
    def test_regex_selector_matches_filter(self, records):
        """Posting-list selection == naive matcher filtering."""
        store, accepted = _build_log_store(records)
        matcher = [label_matcher("app", "=~", "f.*|api")]
        got = {labels for labels, _ in store.select(matcher, 0, 20_001)}
        expected = {
            labels for labels in accepted if matcher[0].matches(labels)
        }
        assert got == expected
