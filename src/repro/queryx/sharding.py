"""Stream sharding for parallel query execution.

Loki's query sharding rewrites ``rate({job="x"}[5m])`` into
``sum(downstream<rate(...), shard=0_of_16> + ...)``: each downstream
only reads the streams whose label-hash lands in its shard, so the fan
out partitions work without double counting.  This module supplies the
two halves of that contract for the reproduction:

- :func:`shard_of` — the partition function, the same FNV-1a +
  SplitMix64 fingerprint the shipper index and the ingest ring use, so
  a stream lands in exactly one shard no matter which component asks.
- :class:`ShardedSource` — a store facade restricting ``select`` to one
  shard.  Stores that advertise ``supports_shard_hints`` get the shard
  pushed down (the gateway then prunes chunk refs *before* paying
  object-store GETs); anything else is post-filtered, which is slower
  but identical in result.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.common.labels import LabelSet, Matcher
from repro.common.postings import check_shard
from repro.loki.model import LogEntry
from repro.objstore.index import stream_fingerprint


def shard_of(labels: LabelSet, shard_count: int) -> int:
    """Which of ``shard_count`` shards owns this stream."""
    check_shard((0, shard_count))
    return stream_fingerprint(labels) % shard_count


class ShardedSource:
    """Restrict a store's ``select`` to one stream shard.

    Exactness: shards partition streams (every stream belongs to
    exactly one shard), so the union of all shards' selects equals the
    unsharded select and no pair of shards overlaps.
    """

    #: Accepts line hints itself (the LogQL engine pushes needles down
    #: per pipeline) and forwards them when the inner store can use them.
    supports_line_hints = True

    def __init__(
        self,
        inner,
        shard_index: int,
        shard_count: int,
        line_contains: Sequence[str] = (),
    ) -> None:
        check_shard((shard_index, shard_count))
        self._inner = inner
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.line_contains = tuple(line_contains)

    def select(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry]]]:
        matchers = list(matchers)
        needles = tuple(dict.fromkeys((*self.line_contains, *line_contains)))
        if getattr(self._inner, "supports_shard_hints", False):
            kwargs = {"shard": (self.shard_index, self.shard_count)}
            if needles and getattr(self._inner, "supports_line_hints", False):
                kwargs["line_contains"] = needles
            return self._inner.select(matchers, start_ns, end_ns, **kwargs)
        # Fallback: full select, keep only this shard's streams.  The
        # line-contains hint is only an optimization (the LogQL pipeline
        # re-applies the filter), so dropping it here is safe.
        return [
            (labels, entries)
            for labels, entries in self._inner.select(matchers, start_ns, end_ns)
            if shard_of(labels, self.shard_count) == self.shard_index
        ]
