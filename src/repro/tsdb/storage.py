"""Column-oriented time-series storage.

Each series (metric name + labels) owns two NumPy columns — ``int64``
timestamps and ``float64`` values — grown by amortised doubling.  Range
reads are ``searchsorted`` slices; the per-sample Python cost is one
dict lookup and one append: a sample reaches its column through a
series-ref table keyed by the (name, labels) it arrived with, so only
the first sample of a series pays for label validation and postings.
(HPC guide: vectorise the hot path, use views not copies.)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet, Matcher
from repro.common.postings import PostingsIndex

#: ``_Column.last_ts`` of a column nothing was appended to yet.
_NO_SAMPLE_YET = -(2**63)

#: Exemplars kept per series — enough for "why is this spiking" clicks
#: without unbounded growth (Prometheus keeps a similar small ring).
EXEMPLARS_PER_SERIES = 10


@dataclass(frozen=True)
class MetricSample:
    """One ingested sample."""

    name: str
    labels: LabelSet
    value: float
    timestamp_ns: int


@dataclass(frozen=True)
class Exemplar:
    """A trace reference attached to a sample (OpenMetrics exemplars).

    Grafana uses these to jump from a metric chart straight to the trace
    that produced the outlying value.
    """

    trace_id: str
    value: float
    timestamp_ns: int


class _Column:
    """Amortised-doubling (timestamp, value) column pair."""

    __slots__ = ("labels", "last_ts", "_ts", "_val", "_len")

    def __init__(self, labels: LabelSet) -> None:
        #: The series this column belongs to (``__name__`` included).
        self.labels = labels
        #: Timestamp of the newest sample: what the ordering check reads.
        self.last_ts = _NO_SAMPLE_YET
        self._ts = np.empty(16, dtype=np.int64)
        self._val = np.empty(16, dtype=np.float64)
        self._len = 0

    def append(self, ts: int, value: float) -> None:
        if self._len == len(self._ts):
            room = max(16, self._len)
            self._ts = np.concatenate([self._ts, np.empty(room, dtype=np.int64)])
            self._val = np.concatenate([self._val, np.empty(room, dtype=np.float64)])
        self._ts[self._len] = ts
        self._val[self._len] = value
        self._len += 1
        self.last_ts = ts

    def rewrite(self, ts: np.ndarray, values: np.ndarray) -> None:
        """Replace the samples with copies of the given time-ordered,
        non-empty arrays (retention, downsampling).  The copies are fresh
        arrays, so views handed out earlier keep showing what they showed."""
        self._ts = np.array(ts, dtype=np.int64)
        self._val = np.array(values, dtype=np.float64)
        self._len = len(self._ts)
        self.last_ts = int(self._ts[-1])

    @property
    def timestamps(self) -> np.ndarray:
        return self._ts[: self._len]

    @property
    def values(self) -> np.ndarray:
        return self._val[: self._len]

    def window(self, start_ns: int, end_ns: int) -> tuple[np.ndarray, np.ndarray]:
        """Views over samples with ``start <= ts < end`` (requires the
        append order to be time-ordered, which ingest enforces)."""
        ts = self._ts[: self._len]
        lo = ts.searchsorted(start_ns)
        hi = ts.searchsorted(end_ns)
        return ts[lo:hi], self._val[lo:hi]

    def __len__(self) -> int:
        return self._len


class TimeSeriesStore:
    """The metric store: ingest + label-indexed selection."""

    def __init__(self) -> None:
        self._series: dict[LabelSet, _Column] = {}
        #: By column, selecting in ascending label order.
        self._postings = PostingsIndex(key=lambda column: column.labels.items_tuple())
        self._exemplars: dict[LabelSet, deque[Exemplar]] = {}
        # Series refs: (name, labels exactly as a caller passes them) →
        # the series' column.  Several keys may name one column (a dict
        # and a LabelSet, two insertion orders); a key is only ever added
        # after `_register` validated it.
        self._refs: dict[tuple, _Column] = {}
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
            column = self._refs.get(ref)
        except TypeError:  # an unhashable label value: let _register say so
            column = None
        if column is None:
            column = self._refs[ref] = self._register(name, labels)
        if timestamp_ns < column.last_ts:
            self.samples_rejected += 1
            return False
        column.append(timestamp_ns, value)
        if exemplar is not None:
            ring = self._exemplars.get(column.labels)
            if ring is None:
                ring = self._exemplars[column.labels] = deque(
                    maxlen=EXEMPLARS_PER_SERIES
                )
            ring.append(exemplar)
        self.samples_ingested += 1
        return True

    def _register(self, name: str, labels: Mapping[str, str] | LabelSet) -> _Column:
        """The validating path, taken once per series ref: build the
        series' label set, and its column and postings if it is new."""
        if not name:
            raise ValidationError("metric name cannot be empty")
        base = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        full = base.with_labels(**{METRIC_NAME_LABEL: name})
        column = self._series.get(full)
        if column is None:
            column = self._series[full] = _Column(full)
            self._postings.add(column, full)
        return column

    def ingest_sample(self, sample: MetricSample) -> bool:
        return self.ingest(
            sample.name, sample.labels, sample.value, sample.timestamp_ns
        )

    def ingest_many(self, samples: Iterable[MetricSample]) -> int:
        return sum(1 for s in samples if self.ingest_sample(s))

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, np.ndarray, np.ndarray]]:
        """Matching series with their (timestamps, values) in the window,
        in ascending label order, series without a sample in it left out.

        The arrays are views of the columns as they are now — a snapshot
        that later ingest and retention never change, and that the
        caller must not write to."""
        if end_ns <= start_ns:
            raise ValidationError("empty time range")
        out = []
        for column in self._postings.select(matchers):
            ts, vals = column.window(start_ns, end_ns)
            if len(ts):
                out.append((column.labels, ts, vals))
        return out

    def exemplars(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, list[Exemplar]]]:
        """Exemplars of matching series with ``start <= ts < end``."""
        if end_ns <= start_ns:
            raise ValidationError("empty time range")
        out: list[tuple[LabelSet, list[Exemplar]]] = []
        for column in self._postings.select(matchers):
            labels = column.labels
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
        return sum(len(c) for c in self._series.values())

    def metric_names(self) -> list[str]:
        return self._postings.values(METRIC_NAME_LABEL)

    def retained_bytes(self) -> int:
        """Resident column bytes (16 per sample: int64 ts + float64 value)."""
        return 16 * self.sample_count()

    def delete_before(self, cutoff_ns: int) -> int:
        """Retention: drop samples older than ``cutoff_ns``.

        A trimmed column keeps its tail by one slice copy; an emptied
        series is unregistered — column, postings, exemplars and the refs
        that led to it — so it starts afresh if it is ingested again.
        Returns samples dropped.
        """
        dropped = 0
        emptied: list[_Column] = []
        for labels, column in list(self._series.items()):
            ts = column.timestamps
            keep_from = int(np.searchsorted(ts, cutoff_ns, side="left"))
            if keep_from == 0:
                continue
            dropped += keep_from
            ring = self._exemplars.get(labels)
            if ring is not None:
                kept = [e for e in ring if e.timestamp_ns >= cutoff_ns]
                if kept:
                    ring.clear()
                    ring.extend(kept)
                else:
                    del self._exemplars[labels]
            if keep_from < len(ts):
                column.rewrite(ts[keep_from:], column.values[keep_from:])
                continue
            emptied.append(column)
            del self._series[labels]
            self._exemplars.pop(labels, None)
            self._postings.remove(column)
        if emptied:
            gone = set(emptied)
            self._refs = {
                ref: column for ref, column in self._refs.items() if column not in gone
            }
        return dropped
