"""The Loki query frontend: range-query splitting and results caching.

Production Loki puts a *query-frontend* in front of the queriers: long
range queries are split into aligned sub-windows executed independently,
and completed sub-windows are cached so the next dashboard refresh only
computes the tip.  That is what makes a Grafana dashboard polling a 6-hour
window every 30 seconds affordable.

This module implements both behaviours for the in-process engines (it
works over any object exposing ``query_range``).  Cache entries are keyed
by (query, aligned window, step); only windows that end in the past are
cached, because the tip is still accumulating data.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Protocol

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, hours
from repro.common.vector import Series


class RangeQueryable(Protocol):
    def query_range(
        self, query: str, start_ns: int, end_ns: int, step_ns: int
    ) -> list[Series]: ...


def aligned_windows(start_ns: int, end_ns: int, split_ns: int):
    """Yield [start, end] sub-windows aligned to the split interval.

    Each sub-window covers evaluation instants in [sub_start, sub_end]
    inclusive; consecutive windows abut without repeating an instant.
    Shared by the frontend cache and the queryx planner so both cut a
    range at identical boundaries.
    """
    if split_ns <= 0:
        raise ValidationError("split interval must be positive")
    cursor = start_ns
    while cursor <= end_ns:
        boundary = (cursor // split_ns + 1) * split_ns
        sub_end = min(end_ns, boundary - 1)
        yield cursor, sub_end
        cursor = sub_end + 1


@dataclass(frozen=True)
class _CacheKey:
    query: str
    start_ns: int
    end_ns: int
    step_ns: int
    #: ``start % step`` of the whole query: the evaluation grid inside
    #: the sub-window is ``phase + k*step``.  Kept as its own field —
    #: folded into the bounds, two same-length queries inside one split
    #: window that share a step bucket but not a phase would share a key
    #: and one would be served the other's grid.
    phase_ns: int
    #: Cache entries are tenant-scoped: identical LogQL submitted by two
    #: tenants must never share results (their visible streams differ).
    tenant: str | None


class QueryFrontend:
    """Splits + caches range queries in front of a query engine."""

    def __init__(
        self, engine: RangeQueryable, clock: SimClock, split_ns: int = hours(1)
    ) -> None:
        if split_ns <= 0:
            raise ValidationError("split interval must be positive")
        self._engine = engine
        self._clock = clock
        self._split_ns = split_ns
        #: LRU capacity, in cached windows.
        self.max_entries = 1024
        # True LRU: ordered oldest-access-first; hits refresh recency.
        self._cache: OrderedDict[_CacheKey, list[Series]] = OrderedDict()
        self.splits_executed = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def query_range(
        self,
        query: str,
        start_ns: int,
        end_ns: int,
        step_ns: int,
        tenant: str | None = None,
    ) -> list[Series]:
        """Split-aligned, cached evaluation; results equal the direct call.

        Sub-windows are aligned to multiples of the split interval so the
        same dashboard refresh always hits the same cache keys.  Steps
        must divide the split interval for alignment to preserve the
        exact evaluation instants.  ``tenant`` scopes the cache: two
        tenants issuing the same LogQL never share cached sub-results.
        """
        if step_ns <= 0:
            raise ValidationError("step must be positive")
        if end_ns < start_ns:
            raise ValidationError("end before start")
        if self._split_ns % step_ns != 0:
            # Cannot split without changing evaluation instants: fall
            # through to the engine unsplit (still correct, just uncached).
            self.cache_misses += 1
            return self._engine.query_range(query, start_ns, end_ns, step_ns)

        phase = start_ns % step_ns
        merged: dict[LabelSet, list[tuple[int, float]]] = {}
        for sub_start, sub_end in aligned_windows(start_ns, end_ns, self._split_ns):
            for series in self._sub_query(
                query, sub_start, sub_end, step_ns, phase, tenant
            ):
                merged.setdefault(series.labels, []).extend(series.points)
        out = []
        for labels, points in merged.items():
            points.sort(key=lambda p: p[0])
            out.append(Series(labels, tuple(points)))
        out.sort(key=lambda s: s.labels.items_tuple())
        return out

    def invalidate(self) -> None:
        """Drop every cached sub-result: the cure for late data landing
        in a window that was already cached."""
        self._cache.clear()

    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def _sub_query(
        self,
        query: str,
        start_ns: int,
        end_ns: int,
        step_ns: int,
        phase: int,
        tenant: str | None,
    ) -> list[Series]:
        """One aligned window, through the LRU: a hit refreshes recency; a
        miss computes, and only a window wholly in the past is stored,
        evicting the least recently used."""
        key = _CacheKey(query, start_ns, end_ns, step_ns, phase, tenant)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        # First on-grid instant inside this sub-window.
        first = start_ns + (phase - start_ns) % step_ns
        result = (
            []
            if first > end_ns
            else self._engine.query_range(query, first, end_ns, step_ns)
        )
        self.splits_executed += 1
        if end_ns < self._clock.now_ns:  # complete, immutable window
            if len(self._cache) >= self.max_entries:
                self._cache.popitem(last=False)
            self._cache[key] = result
        return result
