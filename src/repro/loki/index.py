"""The label index: the *only* index Loki keeps.

Maps stream ids ↔ label sets over a :class:`PostingsIndex` from
``(label, value)`` pairs to stream ids, so a selector resolves over a
label's distinct values instead of a scan of the streams.  Its measured
size is the point of bench C3: it grows with stream count (label
cardinality), never with log volume.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.labels import LabelSet, Matcher
from repro.common.postings import PostingsIndex


class LabelIndex:
    """Bidirectional stream/label index with inverted posting lists."""

    def __init__(self) -> None:
        #: By stream id; ids count up from 0 in creation order.
        self._postings = PostingsIndex()
        self._by_labels: dict[LabelSet, int] = {}

    def __len__(self) -> int:
        return len(self._by_labels)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def get_or_create(self, labels: LabelSet) -> int:
        """Return the stream id for ``labels``, creating it if new."""
        sid = self._by_labels.get(labels)
        if sid is None:
            sid = self._by_labels[labels] = len(self._by_labels)
            self._postings.add(sid, labels)
        return sid

    def labels_of(self, stream_id: int) -> LabelSet:
        return self._postings.labels_of(stream_id)

    def lookup(self, labels: LabelSet) -> int | None:
        return self._by_labels.get(labels)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(
        self, matchers: Iterable[Matcher], shard: tuple[int, int] | None = None
    ) -> tuple[int, ...]:
        """Stream ids, ascending, whose labels satisfy every matcher —
        only those in stream shard ``i`` of ``n`` when ``shard=(i, n)``.
        The postings' memoised tuple itself, not a copy."""
        return self._postings.select(matchers, shard)

    # ------------------------------------------------------------------
    # Introspection (Grafana's label browser; bench C3 sizing)
    # ------------------------------------------------------------------
    def label_names(self) -> list[str]:
        return self._postings.names()

    def label_values(self, name: str) -> list[str]:
        return self._postings.values(name)

    def size_bytes(self) -> int:
        """Approximate resident size of the index structures (the
        postings' select memo is a cache and is not counted)."""
        total = 0
        for labels in self._by_labels:
            for name, value in labels.items_tuple():
                total += len(name.encode()) + len(value.encode()) + 16
        for name, value, ids in self._postings.entries():
            total += len(name.encode()) + len(value.encode()) + 8 * ids
        return total
