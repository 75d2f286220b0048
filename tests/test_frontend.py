"""Tests for the Loki query frontend: split + results cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock, hours, minutes
from repro.loki.frontend import QueryFrontend
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import PushRequest
from repro.loki.store import LokiStore


class CountingEngine:
    """Wraps the real engine, counting calls."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = 0

    def query_range(self, query, start_ns, end_ns, step_ns):
        self.calls += 1
        return self._engine.query_range(query, start_ns, end_ns, step_ns)


@pytest.fixture
def world():
    clock = SimClock(0)
    store = LokiStore()
    # Events spread over six hours.
    entries = [(minutes(10 * i), f"event {i}") for i in range(36)]
    store.push(PushRequest.single({"app": "fm"}, entries))
    clock.advance(hours(6))
    engine = CountingEngine(LogQLEngine(store))
    frontend = QueryFrontend(engine, clock, split_ns=hours(1))
    return clock, engine, frontend


QUERY = 'sum(count_over_time({app="fm"}[30m]))'


class TestCorrectness:
    def test_matches_direct_query(self, world):
        clock, engine, frontend = world
        direct = engine._engine.query_range(QUERY, 0, hours(6), minutes(10))
        split = frontend.query_range(QUERY, 0, hours(6), minutes(10))
        assert split == direct

    def test_matches_with_offgrid_start(self, world):
        clock, engine, frontend = world
        start = minutes(7)  # not a multiple of the step
        direct = engine._engine.query_range(QUERY, start, hours(5), minutes(10))
        split = frontend.query_range(QUERY, start, hours(5), minutes(10))
        assert split == direct

    def test_indivisible_step_falls_through(self, world):
        clock, engine, frontend = world
        direct = engine._engine.query_range(QUERY, 0, hours(2), minutes(7))
        split = frontend.query_range(QUERY, 0, hours(2), minutes(7))
        assert split == direct

    @given(
        st.integers(0, int(hours(2))),
        st.integers(1, int(hours(3))),
        st.sampled_from([minutes(5), minutes(10), minutes(30)]),
    )
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, start, width, step):
        clock = SimClock(0)
        store = LokiStore()
        store.push(
            PushRequest.single(
                {"app": "fm"}, [(minutes(15 * i), f"e{i}") for i in range(20)]
            )
        )
        clock.advance(hours(8))
        engine = LogQLEngine(store)
        frontend = QueryFrontend(engine, clock, split_ns=hours(1))
        end = start + width
        assert frontend.query_range(QUERY, start, end, step) == engine.query_range(
            QUERY, start, end, step
        )


class TestCaching:
    def test_repeat_query_hits_cache(self, world):
        clock, engine, frontend = world
        frontend.query_range(QUERY, 0, hours(5), minutes(10))
        first_calls = engine.calls
        frontend.query_range(QUERY, 0, hours(5), minutes(10))
        assert engine.calls == first_calls  # everything cached
        assert frontend.hit_rate() > 0.4

    def test_tip_window_never_cached(self, world):
        clock, engine, frontend = world
        # Window ending exactly now: the last split is not in the past.
        frontend.query_range(QUERY, 0, clock.now_ns, minutes(10))
        calls_1 = engine.calls
        frontend.query_range(QUERY, 0, clock.now_ns, minutes(10))
        assert engine.calls == calls_1 + 1  # only the tip recomputed

    def test_sliding_dashboard_refresh(self, world):
        """The dashboard pattern: refresh a 3h window every 10 minutes."""
        clock, engine, frontend = world
        for _ in range(6):
            end = clock.now_ns
            frontend.query_range(QUERY, end - hours(3), end, minutes(10))
            clock.advance(minutes(10))
        # Later refreshes reuse interior windows: hits accumulate.
        assert frontend.cache_hits >= 8

    def test_invalidate(self, world):
        clock, engine, frontend = world
        frontend.query_range(QUERY, 0, hours(5), minutes(10))
        frontend.invalidate()
        calls = engine.calls
        frontend.query_range(QUERY, 0, hours(5), minutes(10))
        assert engine.calls > calls

    def test_cache_bounded(self, world):
        clock, engine, frontend = world
        frontend = QueryFrontend(engine, clock, split_ns=hours(1))
        frontend.max_entries = 2
        frontend.query_range(QUERY, 0, hours(5), minutes(10))
        assert len(frontend._cache) <= 2

    def test_different_phases_never_share_entries(self, world):
        clock, engine, frontend = world
        a = frontend.query_range(QUERY, 0, hours(4), minutes(10))
        b = frontend.query_range(QUERY, minutes(3), hours(4), minutes(10))
        direct = engine._engine.query_range(
            QUERY, minutes(3), hours(4), minutes(10)
        )
        assert b == direct
        assert a != b

    def test_same_bucket_different_phase_inside_one_split_window(self, world):
        # Both sub-windows are clipped by the queries themselves (nothing
        # crosses an hour boundary), are equally long, and start in the
        # same 10-minute step bucket — only the phase tells them apart.
        clock, engine, frontend = world
        step = minutes(10)
        on_grid = (hours(1) + minutes(10), hours(1) + minutes(40))
        shifted = (hours(1) + minutes(13), hours(1) + minutes(43))
        for first, second in ((on_grid, shifted), (shifted, on_grid)):
            frontend.invalidate()
            for start, end in (first, second):
                assert frontend.query_range(
                    QUERY, start, end, step
                ) == engine._engine.query_range(QUERY, start, end, step)
        # A true repeat — same bounds, same phase — is still a hit.
        hits = frontend.cache_hits
        frontend.query_range(QUERY, *shifted, step)
        assert frontend.cache_hits == hits + 1


class TestLruEviction:
    """The cache is true LRU: a hit refreshes recency, so the hot entry
    survives an insert-driven eviction (a FIFO cache would evict it)."""

    def test_hit_refreshes_recency(self, world):
        clock, engine, _ = world
        frontend = QueryFrontend(engine, clock, split_ns=hours(1))
        frontend.max_entries = 2
        # Fill the cache: windows [0,1h) and [1h,2h).
        frontend.query_range(QUERY, 0, hours(2) - minutes(10), minutes(10))
        assert len(frontend._cache) == 2
        # Re-touch the OLDEST entry ([0,1h)) — under LRU it becomes the
        # most recent; under FIFO insertion order it would stay oldest.
        frontend.query_range(QUERY, 0, hours(1) - minutes(10), minutes(10))
        # Insert a third window, forcing one eviction.
        frontend.query_range(
            QUERY, hours(2), hours(3) - minutes(10), minutes(10)
        )
        assert len(frontend._cache) == 2
        # The hot [0,1h) window must still answer from cache.
        calls = engine.calls
        frontend.query_range(QUERY, 0, hours(1) - minutes(10), minutes(10))
        assert engine.calls == calls

    def test_cold_entry_is_the_one_evicted(self, world):
        clock, engine, _ = world
        frontend = QueryFrontend(engine, clock, split_ns=hours(1))
        frontend.max_entries = 2
        frontend.query_range(QUERY, 0, hours(2) - minutes(10), minutes(10))
        frontend.query_range(QUERY, 0, hours(1) - minutes(10), minutes(10))
        frontend.query_range(
            QUERY, hours(2), hours(3) - minutes(10), minutes(10)
        )
        # [1h,2h) went cold and was evicted: querying it recomputes.
        calls = engine.calls
        frontend.query_range(
            QUERY, hours(1), hours(2) - minutes(10), minutes(10)
        )
        assert engine.calls == calls + 1


class TestTenantScopedCache:
    """Identical LogQL from two tenants never shares cached results."""

    def test_tenants_do_not_share_entries(self, world):
        clock, engine, frontend = world
        frontend.query_range(QUERY, 0, hours(2), minutes(10), tenant="alpha")
        calls_after_alpha = engine.calls
        frontend.query_range(QUERY, 0, hours(2), minutes(10), tenant="beta")
        # Beta's identical query recomputed every sub-window.
        assert engine.calls > calls_after_alpha
        # Each tenant's second run is fully cached.
        calls = engine.calls
        frontend.query_range(QUERY, 0, hours(2), minutes(10), tenant="alpha")
        frontend.query_range(QUERY, 0, hours(2), minutes(10), tenant="beta")
        assert engine.calls == calls

    def test_untenanted_and_tenanted_are_distinct(self, world):
        clock, engine, frontend = world
        frontend.query_range(QUERY, 0, hours(2), minutes(10))
        calls = engine.calls
        frontend.query_range(QUERY, 0, hours(2), minutes(10), tenant="alpha")
        assert engine.calls > calls


class TestLateArrivingData:
    """The stale-read edge: chunks landing inside an already-cached window.

    Completed sub-windows are cached as immutable.  Per-stream ordering
    is enforced on push, but a *new* stream matching the same selector —
    a collector reconnecting under a fresh label set — can still land
    chunks whose timestamps fall inside a window the frontend already
    cached.  The cache then serves results that predate those entries
    until it is invalidated.  These tests pin down both halves of that
    contract: the stale read happens, and ``invalidate()`` is the cure.
    """

    @pytest.fixture
    def late_world(self):
        clock = SimClock(0)
        store = LokiStore()
        store.push(
            PushRequest.single(
                {"app": "fm"}, [(minutes(10 * i), f"event {i}") for i in range(12)]
            )
        )
        clock.advance(hours(6))
        engine = CountingEngine(LogQLEngine(store))
        frontend = QueryFrontend(engine, clock, split_ns=hours(1))
        return clock, store, engine, frontend

    def test_cached_window_serves_stale_results(self, late_world):
        clock, store, engine, frontend = late_world
        before = frontend.query_range(QUERY, 0, hours(2), minutes(10))
        # A straggler stream delivers entries inside the cached window.
        store.push(
            PushRequest.single(
                {"app": "fm", "host": "late"},
                [(minutes(35), "late a"), (minutes(95), "late b")],
            )
        )
        stale = frontend.query_range(QUERY, 0, hours(2), minutes(10))
        fresh = engine._engine.query_range(QUERY, 0, hours(2), minutes(10))
        assert stale == before  # cache still answers with the old counts
        assert stale != fresh  # ...which no longer match the store

    def test_invalidate_restores_freshness(self, late_world):
        clock, store, engine, frontend = late_world
        frontend.query_range(QUERY, 0, hours(2), minutes(10))
        store.push(
            PushRequest.single({"app": "fm", "host": "late"}, [(minutes(35), "late")])
        )
        frontend.invalidate()
        fresh = frontend.query_range(QUERY, 0, hours(2), minutes(10))
        assert fresh == engine._engine.query_range(QUERY, 0, hours(2), minutes(10))

    def test_late_data_outside_cached_range_is_unaffected(self, late_world):
        clock, store, engine, frontend = late_world
        frontend.query_range(QUERY, 0, hours(2), minutes(10))
        # The straggler lands in a window that was never queried/cached:
        # subsequent queries over it see the data with no invalidation.
        store.push(PushRequest.single({"app": "fm"}, [(hours(3), "late")]))
        got = frontend.query_range(QUERY, hours(3), hours(4), minutes(10))
        assert got == engine._engine.query_range(
            QUERY, hours(3), hours(4), minutes(10)
        )


class TestValidation:
    def test_bad_params(self, world):
        _, _, frontend = world
        with pytest.raises(ValidationError):
            frontend.query_range(QUERY, 0, 10, 0)
        with pytest.raises(ValidationError):
            frontend.query_range(QUERY, 10, 0, 1)
        with pytest.raises(ValidationError):
            QueryFrontend(None, SimClock(0), split_ns=0)  # type: ignore[arg-type]
