"""Arena time-series storage.

Each metric name owns one *arena*: a flat ``int64`` timestamp array and a
flat ``float64`` value array.  Every series of the name owns a contiguous
segment of them — its samples, time-ordered, then unused room whose
timestamps read :data:`_UNUSED`, the largest ``int64`` — so a search
inside a segment needs only where the segment begins and ends.

* **Append** is one series-ref lookup and two writes: a sample reaches
  its series through a table keyed by the (name, labels) it arrived
  with, so only the first sample of a series pays for label validation
  and postings.  A full segment moves to the arena's free tail with
  twice the room; when the tail is used up the arena is *repacked* —
  every series copied, in one gather, into a fresh pair with half its
  length again as room — so append stays amortised O(1) and what is
  allocated stays under about twice what is held.
* **Select** resolves its matchers to series through the postings index
  and then has no per-series Python: one segmented search over every
  selected segment at once (two numpy passes) finds where the window
  begins and ends in each, and one gather copies those samples end to
  end into a :class:`Selection` — the columns the PromQL engine reads,
  and a snapshot later ingest, moves and retention never change.

(HPC guide: vectorise the hot path.)
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet, Matcher
from repro.common.postings import MAX_MEMO, PostingsIndex

#: ``_Series.last_ts`` of a series nothing was appended to yet.
_NO_SAMPLE_YET = -(2**63)

#: The timestamp of every unused position of an arena: later than any
#: window ends, so a segment's room never reads as inside one.
_UNUSED = 2**63 - 1

#: The pad element a selection's columns end with.
_ZERO = np.zeros(1, dtype=np.int64)
_ZERO_VALUE = np.zeros(1)

#: Room a new series gets, and the least a repack leaves any series.
MIN_ROOM = 16

#: Exemplars kept per series — enough for "why is this spiking" clicks
#: without unbounded growth (Prometheus keeps a similar small ring).
EXEMPLARS_PER_SERIES = 10


@dataclass(frozen=True)
class Exemplar:
    """A trace reference attached to a sample (OpenMetrics exemplars).

    Grafana uses these to jump from a metric chart straight to the trace
    that produced the outlying value.
    """

    trace_id: str
    value: float
    timestamp_ns: int


class _Segments:
    """Segments ``[lo, hi)`` of an arena (each time-ordered, ``lo <= hi``,
    any array shape), and the probes that search all of them at once."""

    __slots__ = ("lo", "last", "hi", "stride", "probes", "block")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self.lo = lo
        self.last = (hi - 1)[..., None]
        self.hi = hi
        #: Blocks of about the square root of the longest segment.
        self.stride = isqrt(int((hi - lo).max(initial=0))) + 1
        self.block = np.arange(self.stride)
        #: The first pass's probes, the last position of each block,
        #: which depend on the segments alone.
        self.probes = np.minimum(
            lo[..., None] + self.stride * self.block + (self.stride - 1), self.last
        )

    def search(self, ts: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per segment, the first position whose timestamp is at or after
        ``target`` (broadcast against the segments), ``hi`` if none is.

        Two passes, each probing positions clamped to the segment's last:
        the last of each block of ``stride``, then the positions of the
        one block the target falls in.  The probes before the target are
        a prefix, so counting them finds where the next pass starts and
        then the answer.  A clamped probe before the target means the
        whole segment is, which the final clamp to ``hi`` answers."""
        target = target[..., None]
        at = self.lo + self.stride * (ts[self.probes] < target).sum(axis=-1)
        probes = np.minimum(at[..., None] + self.block, self.last)
        return np.minimum(at + (ts[probes] < target).sum(axis=-1), self.hi)


def _runs(stops: np.ndarray, lengths: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The positions of runs that end just before ``stops``, ``lengths``
    long, one after the other, given ``ends = cumsum(lengths)``: where a
    gather of those runs reads (or writes)."""
    at = (stops - ends).repeat(lengths)
    at += np.arange(len(at))
    return at


class _Series:
    """One series: its labels and where its segment of the arena is."""

    __slots__ = ("labels", "arena", "slot", "start", "at", "end", "last_ts")

    def __init__(self, labels: LabelSet, arena: "_Arena") -> None:
        #: The series' label set (``__name__`` included).
        self.labels = labels
        self.arena = arena
        #: Position in ``arena.series``.
        self.slot = 0
        #: The segment is ``[start, end)``; samples fill ``[start, at)``.
        self.start = self.at = self.end = 0
        #: Timestamp of the newest sample: what the ordering check reads.
        self.last_ts = _NO_SAMPLE_YET


class _Arena:
    """One metric name's samples: every series' segment of one pair of
    flat arrays, plus a pad position at the very end.  ``[tail, pad)``
    is free room; past the tail every timestamp is :data:`_UNUSED`."""

    __slots__ = ("ts", "values", "tail", "series", "_table")

    def __init__(self) -> None:
        self.ts = np.full(MIN_ROOM + 1, _UNUSED, dtype=np.int64)
        self.values = np.zeros(MIN_ROOM + 1)
        self.tail = 0
        self.series: list[_Series] = []
        self._table: tuple[np.ndarray, np.ndarray] | None = None

    def add(self, series: _Series) -> None:
        series.slot = len(self.series)
        self.series.append(series)
        self.place(series, MIN_ROOM)

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every segment's start and end, by slot."""
        if self._table is None:
            self._table = (
                np.fromiter((s.start for s in self.series), np.intp, len(self.series)),
                np.fromiter((s.end for s in self.series), np.intp, len(self.series)),
            )
        return self._table

    def place(self, series: _Series, room: int) -> None:
        """Move ``series``' samples to a segment of ``room`` at the tail
        (the old segment becomes a hole), repacking if the tail is short."""
        self._table = None
        if self.tail + room >= len(self.ts):
            self.repack(needs={series.slot: room})
            return
        held = series.at - series.start
        start = self.tail
        self.ts[start : start + held] = self.ts[series.start : series.at]
        self.values[start : start + held] = self.values[series.start : series.at]
        series.start, series.at, series.end = start, start + held, start + room
        self.tail = start + room

    def repack(
        self,
        needs: Mapping[int, int] | None = None,
        keep_from: np.ndarray | None = None,
    ) -> None:
        """Copy every series into a fresh, hole-free pair of arrays, each
        with room for half its length again (at least ``needs[slot]`` where
        asked), and a free tail of a quarter of that — or, if more, a new
        series' room for every series there is, so that registering the
        series of a name repacks only as often as their count doubles.
        ``keep_from``, by slot, drops each series' samples before that
        offset; a series left with none is dropped from the arena and the
        slots renumbered."""
        starts, _ends = self.table()
        ats = np.fromiter((s.at for s in self.series), np.intp, len(self.series))
        if keep_from is not None:
            starts = starts + keep_from
            live = ats > starts
            self.series = [s for s, alive in zip(self.series, live.tolist()) if alive]
            starts, ats = starts[live], ats[live]
        held = ats - starts
        rooms = np.maximum(held + (held >> 1), MIN_ROOM)
        for slot, room in (needs or {}).items():
            rooms[slot] = max(int(rooms[slot]), room)
        new_starts = np.concatenate([[0], np.cumsum(rooms)])
        size = int(new_starts[-1])
        size += max(size // 4, MIN_ROOM * len(self.series))
        ts = np.full(size + 1, _UNUSED, dtype=np.int64)
        values = np.zeros(size + 1)
        # One gather: sample k of series i moves from starts[i] + k to
        # new_starts[i] + k.
        ends = np.cumsum(held)
        src, dst = _runs(ats, held, ends), _runs(new_starts[:-1] + held, held, ends)
        ts[dst] = self.ts[src]
        values[dst] = self.values[src]
        self.ts, self.values = ts, values
        self.tail = int(new_starts[-1])
        for slot, (series, start, n, end) in enumerate(
            zip(self.series, new_starts[:-1].tolist(), held.tolist(), new_starts[1:].tolist())
        ):
            series.slot = slot
            series.start, series.at, series.end = start, start + n, end
        self._table = None


class _Group:
    """The series of one selection that live in one arena: their slots,
    and the rows (positions in the selection) they take."""

    __slots__ = ("arena", "slots", "rows", "_table", "_segments")

    def __init__(self, arena: _Arena, slots: list[int], rows: list[int]) -> None:
        self.arena = arena
        self.slots = np.array(slots, dtype=np.intp)
        self.rows = np.array(rows, dtype=np.intp)
        self._table: tuple | None = None
        self._segments: _Segments | None = None

    def window(self, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per series, where the window begins in the arena and where it
        ends, given ``target``, the window's start and end (each a scalar
        or one a series): both edges in one search, over the segments
        twice over (worked out again only once a segment has moved)."""
        table = self.arena.table()
        if table is not self._table:
            starts, ends = table
            self._table = table
            self._segments = _Segments(
                np.stack([starts[self.slots]] * 2), np.stack([ends[self.slots]] * 2)
            )
        return self._segments.search(self.arena.ts, target)


#: A selection's series labels (an object array, in ascending label
#: order) and its groups, one per arena it reaches into.
_Layout = tuple[np.ndarray, list[_Group]]


class Selection(Sequence):
    """What :meth:`TimeSeriesStore.select` returns: the selected series,
    each a ``(labels, timestamps, values)`` row, held as columns — every
    series' samples end to end in ``ts``/``values``, series *i* at
    ``bounds[i]:bounds[i + 1]``, plus one pad element at the very end (so
    a position just past the last sample can still be indexed).  The
    columns are copies: later ingest, moves and retention never change
    them."""

    __slots__ = ("labels", "bounds", "ts", "values")

    def __init__(
        self,
        labels: list[LabelSet],
        bounds: np.ndarray,
        ts: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.labels = labels
        self.bounds = bounds
        self.ts = ts
        self.values = values

    @classmethod
    def of(cls, rows: Iterable[tuple[LabelSet, np.ndarray, np.ndarray]]) -> "Selection":
        """``rows`` as a selection: itself if it is one, else its rows'
        arrays copied end to end (what a source other than the store
        hands the engine)."""
        if isinstance(rows, Selection):
            return rows
        labels, ts, values = zip(*rows) if rows else ((), (), ())
        return cls(
            list(labels),
            np.fromiter(accumulate(map(len, ts), initial=0), np.intp, len(ts) + 1),
            np.concatenate(ts + (_ZERO,)),
            np.concatenate(values + (_ZERO_VALUE,)),
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> tuple[LabelSet, np.ndarray, np.ndarray]:
        labels = self.labels[i]  # raises the IndexError iteration ends on
        i %= len(self.labels)
        lo, hi = self.bounds[i], self.bounds[i + 1]
        return labels, self.ts[lo:hi], self.values[lo:hi]

    def __iter__(self) -> Iterator[tuple[LabelSet, np.ndarray, np.ndarray]]:
        bounds = self.bounds.tolist()
        for labels, lo, hi in zip(self.labels, bounds, bounds[1:]):
            yield labels, self.ts[lo:hi], self.values[lo:hi]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Selection, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class TimeSeriesStore:
    """The metric store: ingest + label-indexed selection."""

    def __init__(self) -> None:
        self._series: dict[LabelSet, _Series] = {}
        self._arenas: dict[str, _Arena] = {}
        #: By series, selecting in ascending label order.
        self._postings = PostingsIndex(key=lambda series: series.labels.items_tuple())
        # Per selector: the postings answer it was worked out for, and
        # that answer's layout.
        self._layouts: dict[tuple, tuple[tuple, _Layout]] = {}
        self._exemplars: dict[LabelSet, deque[Exemplar]] = {}
        # Series refs: (name, labels exactly as a caller passes them) →
        # the series.  Several keys may name one series (a dict and a
        # LabelSet, two insertion orders); a key is only ever added after
        # `_register` validated it.
        self._refs: dict[tuple, _Series] = {}
        self.samples_ingested = 0
        self.samples_rejected = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        name: str,
        labels: Mapping[str, str] | LabelSet,
        value: float,
        timestamp_ns: int,
        exemplar: Exemplar | None = None,
    ) -> bool:
        """Ingest one sample; returns False if rejected (out of order)."""
        ref = (
            name,
            labels if isinstance(labels, LabelSet) else tuple(labels.items()),
        )
        try:
            series = self._refs.get(ref)
        except TypeError:  # an unhashable label value: let _register say so
            series = None
        if series is None:
            series = self._refs[ref] = self._register(name, labels)
        if timestamp_ns < series.last_ts:
            self.samples_rejected += 1
            return False
        arena = series.arena
        if series.at == series.end:  # full: twice the room elsewhere
            arena.place(series, 2 * (series.end - series.start))
        at = series.at
        arena.ts[at] = timestamp_ns
        arena.values[at] = value
        series.at = at + 1
        series.last_ts = timestamp_ns
        if exemplar is not None:
            ring = self._exemplars.get(series.labels)
            if ring is None:
                ring = self._exemplars[series.labels] = deque(
                    maxlen=EXEMPLARS_PER_SERIES
                )
            ring.append(exemplar)
        self.samples_ingested += 1
        return True

    def _register(self, name: str, labels: Mapping[str, str] | LabelSet) -> _Series:
        """The validating path, taken once per series ref: build the
        series' label set, and its segment and postings if it is new."""
        if not name:
            raise ValidationError("metric name cannot be empty")
        base = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        full = base.with_labels(**{METRIC_NAME_LABEL: name})
        series = self._series.get(full)
        if series is None:
            arena = self._arenas.get(name)
            if arena is None:
                arena = self._arenas[name] = _Arena()
            series = self._series[full] = _Series(full, arena)
            arena.add(series)
            self._postings.add(series, full)
        return series

    def replace(
        self,
        labels: LabelSet,
        start_ns: int,
        end_ns: int,
        ts: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Replace the samples of series ``labels`` with ``start_ns <= t <
        end_ns`` by the time-ordered ``ts``/``values``, which must fall
        between the samples kept on either side (downsampling)."""
        series = self._series[labels]
        arena = series.arena
        held_ts = arena.ts[series.start : series.at]
        lo, hi = held_ts.searchsorted([start_ns, end_ns]).tolist()
        new_ts = np.concatenate([held_ts[:lo], ts, held_ts[hi:]])
        new_values = np.concatenate(
            [arena.values[series.start : series.start + lo], values,
             arena.values[series.start + hi : series.at]]
        )
        held = len(new_ts)
        if held > series.end - series.start:
            arena.place(series, 2 * held)
        start = series.start
        arena.ts[start : start + held] = new_ts
        arena.values[start : start + held] = new_values
        arena.ts[start + held : series.at] = _UNUSED
        series.at = start + held
        series.last_ts = int(new_ts[-1]) if held else _NO_SAMPLE_YET

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        starts: Mapping[LabelSet, int] | None = None,
    ) -> Selection:
        """Matching series with their (timestamps, values) in the window,
        in ascending label order, series without a sample in it left out.
        ``starts``, by series labels, moves a series' own window start
        (the downsampler's: just after the last bucket it rolled).

        The arrays are copies, taken as the store is now: a snapshot
        that later ingest and retention never change."""
        if end_ns <= start_ns:
            raise ValidationError("empty time range")
        matchers = tuple(matchers)
        found = self._postings.select(matchers)
        layout = self._layouts.get(matchers)
        if layout is None or layout[0] is not found:
            if len(self._layouts) >= MAX_MEMO:
                self._layouts.clear()
            layout = self._layouts[matchers] = (found, self._layout(found))
        labels, groups = layout[1]
        if not groups:
            return Selection.of([])
        # Per arena, each series' window and one gather of them all, in
        # the group's row order; several arenas' runs are then put back
        # into label order with one more gather.
        parts = []
        for group in groups:
            if starts is None:
                target = np.array([[start_ns], [end_ns]])
            else:
                target = np.full((2, len(group.rows)), end_ns)
                target[0] = np.fromiter(
                    (starts.get(series, start_ns) for series in labels[group.rows]),
                    np.int64, len(group.rows),
                ).clip(max=end_ns)
            first, end = group.window(target)
            held = end - first
            ends = held.cumsum()
            src = _runs(end, held, ends)
            parts.append((group.rows, held, ends, group.arena.ts[src], group.arena.values[src]))
        if len(parts) == 1:
            _rows, held, ends, ts, values = parts[0]
        else:
            rows, held, _ends, ts, values = (np.concatenate(column) for column in zip(*parts))
            order = rows.argsort()
            stops = held.cumsum()[order]
            held = held[order]
            ends = held.cumsum()
            src = _runs(stops, held, ends)
            ts, values = ts[src], values[src]
        if np.count_nonzero(held) != len(held):
            kept = held > 0
            labels, ends = labels[kept], ends[kept]
        return Selection(
            labels.tolist(),
            np.concatenate((_ZERO, ends)),
            np.concatenate((ts, _ZERO)),
            np.concatenate((values, _ZERO_VALUE)),
        )

    def newest(self, matchers: Iterable[Matcher]) -> dict[LabelSet, int]:
        """Each matching series' newest timestamp, by its labels."""
        return {series.labels: series.last_ts for series in self._postings.select(tuple(matchers))}

    @staticmethod
    def _layout(found: tuple) -> _Layout:
        """The selected series' labels, and their groups by arena."""
        labels = np.empty(len(found), dtype=object)
        groups: dict[_Arena, tuple[list[int], list[int]]] = {}
        for row, series in enumerate(found):
            labels[row] = series.labels
            slots, rows = groups.setdefault(series.arena, ([], []))
            slots.append(series.slot)
            rows.append(row)
        return labels, [_Group(arena, *group) for arena, group in groups.items()]

    def exemplars(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, list[Exemplar]]]:
        """Exemplars of matching series with ``start <= ts < end``."""
        if end_ns <= start_ns:
            raise ValidationError("empty time range")
        out: list[tuple[LabelSet, list[Exemplar]]] = []
        for series in self._postings.select(matchers):
            labels = series.labels
            ring = self._exemplars.get(labels)
            if not ring:
                continue
            hits = [e for e in ring if start_ns <= e.timestamp_ns < end_ns]
            if hits:
                out.append((labels, hits))
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def series_count(self) -> int:
        return len(self._series)

    def sample_count(self) -> int:
        return sum(s.at - s.start for s in self._series.values())

    def metric_names(self) -> list[str]:
        return self._postings.values(METRIC_NAME_LABEL)

    def retained_bytes(self) -> int:
        """Resident sample bytes (16 per sample: int64 ts + float64 value)."""
        return 16 * self.sample_count()

    def delete_before(self, cutoff_ns: int) -> int:
        """Retention: drop samples older than ``cutoff_ns``.

        An arena with anything to drop is repacked without it; an
        emptied series is unregistered — segment, postings, exemplars
        and the refs that led to it — so it starts afresh if it is
        ingested again.  Returns samples dropped.
        """
        dropped = 0
        emptied: list[_Series] = []
        for name, arena in list(self._arenas.items()):
            starts, ends = arena.table()
            keep_from = _Segments(starts, ends).search(arena.ts, np.array(cutoff_ns)) - starts
            if not keep_from.any():
                continue
            dropped += int(keep_from.sum())
            for series, n in zip(arena.series, keep_from.tolist()):
                ring = self._exemplars.get(series.labels) if n else None
                if ring is not None:
                    kept = [e for e in ring if e.timestamp_ns >= cutoff_ns]
                    if kept:
                        ring.clear()
                        ring.extend(kept)
                    else:
                        del self._exemplars[series.labels]
                if series.start + n == series.at:
                    emptied.append(series)
            arena.repack(keep_from=keep_from)
            if not arena.series:
                del self._arenas[name]
        for series in emptied:
            del self._series[series.labels]
            self._exemplars.pop(series.labels, None)
            self._postings.remove(series)
        if emptied:
            gone = set(emptied)
            self._refs = {
                ref: series for ref, series in self._refs.items() if series not in gone
            }
        return dropped
