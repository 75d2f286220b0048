"""The postings index: the one label-matching mechanism (DESIGN §3).

Label name → value → the ids carrying that pair, held by the hot Loki
index, the TSDB and every table of the cold shipper index.  A selector
resolves the Prometheus ``PostingsForMatchers`` way — a matcher is tested
once per *distinct value* of its label, never once per stream — and the
answer is memoised per :attr:`PostingsIndex.generation`, so the shards
and replicas of one read, and a rule's selector tick after tick, resolve
once.  The memo is a cache, not index: sizing does not count it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from repro.common.errors import NotFoundError, ValidationError
from repro.common.labels import LabelSet, Matcher, MatchOp

#: Memoised selects an index keeps; the table starts over when full.
MAX_MEMO = 1 << 10


def check_shard(shard: tuple[int, int]) -> None:
    """Refuse a stream cut ``(i, n)`` that is not ``0 <= i < n``."""
    index, count = shard
    if not 0 <= index < count:
        raise ValidationError(f"shard {index} out of range for {count} shards")


class PostingsIndex:
    """Ids by label pair.  ``key`` orders a select's result (default: as
    the ids themselves sort); a result is a tuple shared with the memo."""

    def __init__(self, key: Callable | None = None) -> None:
        self._key = key
        #: id → its labels, in registration order.
        self._labels: dict[Hashable, LabelSet] = {}
        # Ids are insertion-ordered (a dict used as a set), so they reach
        # the result's sort in registration order — long ascending runs.
        self._postings: dict[str, dict[str, dict[Hashable, None]]] = {}
        #: Bumped by every add and remove: what a memoised select is of.
        self.generation = 0
        self._memo: dict[tuple, tuple] = {}
        self._memo_generation = 0

    def add(self, id: Hashable, labels: LabelSet) -> None:
        """Register a new ``id`` under every pair of ``labels``."""
        self._labels[id] = labels
        postings = self._postings
        for name, value in labels.items_tuple():
            # Looked up before created: most pairs a new id carries exist.
            values = postings.get(name)
            if values is None:
                values = postings[name] = {}
            ids = values.get(value)
            if ids is None:
                ids = values[value] = {}
            ids[id] = None
        self.generation += 1

    def remove(self, id: Hashable) -> None:
        for name, value in self._labels.pop(id).items_tuple():
            values = self._postings[name]
            del values[value][id]
            if not values[value]:
                del values[value]
                if not values:
                    del self._postings[name]
        self.generation += 1

    def labels_of(self, id: Hashable) -> LabelSet:
        try:
            return self._labels[id]
        except KeyError:
            raise NotFoundError(f"no such id: {id}") from None

    def names(self) -> list[str]:
        return sorted(self._postings)

    def values(self, name: str) -> list[str]:
        return sorted(self._postings.get(name, ()))

    def entries(self) -> Iterator[tuple[str, str, int]]:
        """``(name, value, ids carrying it)`` per pair — what sizing reads."""
        for name, values in self._postings.items():
            for value, ids in values.items():
                yield name, value, len(ids)

    def select(
        self, matchers: Iterable[Matcher], shard: tuple[int, int] | None = None
    ) -> tuple:
        """Ids whose labels satisfy every matcher, in ``key`` order — with
        ``shard=(i, n)``, those whose fingerprint lands in ``i`` of ``n``."""
        query = (tuple(matchers), shard)
        if self._memo_generation != self.generation:
            self._memo.clear()
            self._memo_generation = self.generation
        ids = self._memo.get(query)
        if ids is None:
            if len(self._memo) >= MAX_MEMO:
                self._memo.clear()
            ids = self._memo[query] = self._resolve(*query)
        return ids

    def _resolve(self, matchers: tuple[Matcher, ...], shard) -> tuple:
        if shard is not None:
            check_shard(shard)
            index, count = shard
            labels = self._labels
            return tuple(
                id for id in self.select(matchers) if labels[id].fingerprint() % count == index
            )
        # A matcher sees an absent label as "" (Matcher.matches).  One
        # that refuses "" keeps the ids of the values it accepts; one
        # that accepts "" keeps every id but those of the values it
        # refuses — so a label held with value "" reads as absent.
        kept: set | None = None  # None: every id
        for m in matchers:
            values = self._postings.get(m.name, {})
            accepts_empty = m.matches_value("")
            if m.op is MatchOp.EQ and not accepts_empty:
                ids = values.get(m.value, ())
            else:
                ids = set().union(
                    *(values[v] for v in values if m.matches_value(v) is not accepts_empty)
                )
            if accepts_empty:
                kept = (set(self._labels) if kept is None else kept).difference(ids)
            else:
                kept = set(ids) if kept is None else kept.intersection(ids)
            if not kept:
                return ()
        return tuple(sorted(self._labels if kept is None else kept, key=self._key))
