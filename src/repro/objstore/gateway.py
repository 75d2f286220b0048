"""The store-gateway: historical selects served from the object store.

The gateway is the read half of the cold tier.  A select consults the
shipper index for overlapping chunk refs (matcher filtering happens on
ref metadata — no chunk is fetched unless its stream matches and its
time bounds overlap), GETs each payload, decodes it, and merges
per stream with :func:`~repro.ring.merge.merge_stream_columns`, as a
quorum read does — so divergent replica chunks that were shipped before
the compactor could dedup them still read back exactly once.

Latency is accounted per query from the object store's charge model;
``last_query_latency_ns`` is what bench S1 prices cold reads with.

``select_columns`` takes the one log-store signature (DESIGN §3), and
its two pruning hints cut the fetch set before any GET is paid (both
optional, both exact):

* ``shard=(i, n)`` keeps only refs whose stream fingerprint lands in
  shard ``i`` of ``n`` — the queryx engine's stream partition;
* ``line_contains=(needles...)`` consults the bloom store (when one is
  attached): a chunk whose bloom block proves a needle absent is
  skipped.  Blooms never produce false negatives and only blocks that
  *cover* a ref may veto it, so skipped chunks cannot change answers.

``chunks_considered`` / ``chunks_fetched`` / ``chunks_skipped`` count
the pruning per query and in total — the numbers Q1 and the "Query
Engine" dashboard report.

Object keys are content-addressed, so a key's bytes never change and
neither do its entries: the gateway keeps a
:class:`~repro.loki.chunks.DecodeCache` keyed by object key, and a
repeated read slices the cached entries and timestamp column instead of
decompressing the payload again.  It is a *decode* cache, not a fetch
cache — every read still pays its GET, latency and counters, and a
deleted object still fails on the GET.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from repro.common.labels import LabelSet, Matcher
from repro.common.simclock import SimClock
from repro.loki.chunks import DecodeCache, between, decode
from repro.loki.model import LogEntry
from repro.loki.store import EntrySelect
from repro.objstore.index import ChunkRef, ShipperIndex
from repro.objstore.objectstore import ObjectStore
from repro.ring.merge import merge_stream_columns
from repro.tempo.tracer import Tracer


class StoreGateway(EntrySelect):
    """Selects over shipped chunks, transparently to the querier."""

    def __init__(
        self,
        store: ObjectStore,
        index: ShipperIndex,
        clock: SimClock,
        blooms=None,
        *,
        tracer: Tracer,
    ) -> None:
        self._objstore = store
        self._index = index
        self._clock = clock
        self._tracer = tracer
        #: Optional ``repro.queryx.bloom.BloomStore`` (duck-typed so the
        #: storage layer carries no dependency on the query engine).
        self.blooms = blooms
        self.queries = 0
        self.chunks_fetched_total = 0
        self.bytes_fetched_total = 0
        self.fetch_latency_ns_total = 0
        self.last_query_latency_ns = 0
        self.chunks_considered_total = 0
        self.chunks_skipped_total = 0
        self.last_chunks_considered = 0
        self.last_chunks_fetched = 0
        self.last_chunks_skipped = 0
        self._decoded = DecodeCache()

    @property
    def bucket(self) -> str:
        return self._index.bucket

    def _fetch(self, ref: ChunkRef) -> tuple[tuple[list[LogEntry], array], int]:
        """GET ``ref``'s object; its entries and timestamp column, decoded
        once per key while the key stays cached, and the GET's latency."""
        payload, latency = self._objstore.get_with_latency(self.bucket, ref.key)
        self.chunks_fetched_total += 1
        self.bytes_fetched_total += len(payload)
        columns = self._decoded.get(ref.key)
        if columns is None:
            columns = self._decoded.put(ref.key, decode(payload), ref.uncompressed_bytes)
        return columns, latency

    def select_columns(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        shard: tuple[int, int] | None = None,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """Cold entries per matching stream with ``start <= ts < end``,
        and their timestamp columns."""
        started = self._clock.now_ns
        self.queries += 1
        # Off-shard refs belong to another subquery, not to this query's
        # pruning story: they are cut here and never "considered".
        refs = self._index.refs_overlapping(
            start_ns, end_ns, matchers=matchers, shard=shard
        )
        considered = len(refs)
        skipped = 0
        if self.blooms is not None and line_contains:
            kept = []
            for ref in refs:
                if self.blooms.can_skip(ref, line_contains):
                    skipped += 1
                else:
                    kept.append(ref)
            refs = kept
        latency = 0
        fetched: list[tuple[LabelSet, list[LogEntry], array]] = []
        for ref in refs:
            columns, chunk_latency = self._fetch(ref)
            latency += chunk_latency
            fetched.append((ref.labels, *between(*columns, start_ns, end_ns)))
        self.last_query_latency_ns = latency
        self.fetch_latency_ns_total += latency
        self.last_chunks_considered = considered
        self.last_chunks_fetched = len(refs)
        self.last_chunks_skipped = skipped
        self.chunks_considered_total += considered
        self.chunks_skipped_total += skipped
        out = merge_stream_columns(fetched)
        self._tracer.record(
            "store-gateway",
            "objstore.select",
            start_ns=started,
            attributes={
                "chunks_considered": considered,
                "chunks_fetched": len(refs),
                "chunks_skipped": skipped,
                "streams": len(out),
                "cold_latency_ns": latency,
            },
        )
        return out

    def bytes_overlapping(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int, limit: int
    ) -> int:
        """Uncompressed bytes of the refs a ``select_columns`` of
        ``[start, end)`` would consider, off the shipper index alone and
        no further than ``limit``: no GET, no counter."""
        return self._index.bytes_overlapping(start_ns, end_ns, matchers, limit)

    def expired_entries(
        self, cutoff_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """Entries cold retention would drop at ``cutoff_ns`` (chunks
        wholly before the cutoff) and their timestamps, merged per
        stream — what a retention sweep archives.  A preview is not a
        query: it reads through the decode cache where the key is
        cached, GETs where it is not, and moves no fetch counter and
        fills no cache entry."""
        fetched: list[tuple[LabelSet, list[LogEntry], array]] = []
        for ref in self._index.refs_wholly_before(cutoff_ns):
            columns = self._decoded.peek(ref.key)
            if columns is None:
                columns = decode(self._objstore.get(self.bucket, ref.key))
            entries, ts = columns
            # Copies of a cached pair: the merge hands a stream's only
            # part on as it is.
            fetched.append((ref.labels, entries[:], ts[:]))
        return merge_stream_columns(fetched)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def oldest_entry_ns(self) -> int | None:
        return self._index.oldest_first_ts()

    def skip_ratio(self) -> float:
        """Fraction of considered chunks the blooms let us not fetch."""
        if self.chunks_considered_total == 0:
            return 0.0
        return self.chunks_skipped_total / self.chunks_considered_total

    def counters(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "chunks_considered": self.chunks_considered_total,
            "chunks_fetched": self.chunks_fetched_total,
            "chunks_skipped": self.chunks_skipped_total,
            "bytes_fetched": self.bytes_fetched_total,
            "fetch_latency_ns": self.fetch_latency_ns_total,
            "decode_hits": self._decoded.hits,
            "decode_misses": self._decoded.misses,
        }
