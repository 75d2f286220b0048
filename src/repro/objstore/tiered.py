"""TieredLokiStore: hot + cold behind the one log-store contract.

The facade the rest of the stack talks to when object storage is on.
It wraps whatever hot tier it is given — a bare ``LokiStore`` or the
RF-3 ring — through the contract both keep (DESIGN §3), so it never asks
which one it holds.  Writes go to the hot tier unchanged; reads fan out
to both tiers and :func:`~repro.ring.merge.merge_stream_columns` them
when both answered, so a window spanning resident and flushed data
returns every entry exactly once even while chunks are mid-flight
(resident *and* shipped).
Maintenance — retention, expiry preview, flushes — covers both tiers,
which is what lets the OMNI lifecycle, the LogQL engine and
the ruler run unmodified.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Sequence

from repro.common.labels import LabelSet, Matcher
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import EntrySelect, LokiStore, StoreStats
from repro.objstore.compactor import CompactionResult, Compactor
from repro.objstore.gateway import StoreGateway
from repro.objstore.index import ShipperIndex
from repro.objstore.objectstore import ObjectStore
from repro.objstore.shipper import ChunkShipper, FlushResult
from repro.ring.merge import merge_stream_columns


class TieredLokiStore(EntrySelect):
    """Hot ingest tier + object-store cold tier, one store surface."""

    def __init__(
        self,
        hot: LokiStore,
        objstore: ObjectStore,
        index: ShipperIndex,
        shipper: ChunkShipper,
        compactor: Compactor,
        gateway: StoreGateway,
    ) -> None:
        self.hot = hot
        self.objstore = objstore
        self.index = index
        self.shipper = shipper
        self.compactor = compactor
        self.gateway = gateway

    # ------------------------------------------------------------------
    # Ingest (hot tier only; the shipper moves data cold later)
    # ------------------------------------------------------------------
    def push(self, request: PushRequest) -> int:
        return self.hot.push(request)

    def push_stream(
        self, labels: LabelSet | Mapping[str, str], entries: Iterable[LogEntry]
    ) -> int:
        return self.hot.push_stream(labels, entries)

    # ------------------------------------------------------------------
    # Reads: both tiers, merged
    # ------------------------------------------------------------------
    def select_columns(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        shard: tuple[int, int] | None = None,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """Both tiers' answers, merged per stream, cold before hot: at a
        timestamp both tiers hold, cold's group comes first, then what
        only hot holds, in hot's order — the order the writes arrived
        in.  A tier that answered nothing leaves the other's answer as
        it is.
        The shard cut reaches both (the gateway prunes refs before any
        GET, the hot stores skip off-shard streams before any chunk read
        or replica merge); the line hints reach the gateway's bloom
        gate."""
        matchers = list(matchers)
        hot = self.hot.select_columns(matchers, start_ns, end_ns, shard, line_contains)
        cold = self.gateway.select_columns(matchers, start_ns, end_ns, shard, line_contains)
        if not cold:
            return hot
        if not hot:
            return cold
        return merge_stream_columns(cold + hot, in_copy_order=True)

    def bytes_overlapping(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int, limit: int
    ) -> int:
        """Cold, then hot with what is left of ``limit``.  The shipper
        drops each chunk it ships, so a chunk is counted in the tier that
        holds it, and a ring's replicas of it once in either: one object
        cold, one replica's copy hot."""
        matchers = list(matchers)
        cold = self.gateway.bytes_overlapping(matchers, start_ns, end_ns, limit)
        if cold >= limit:
            return cold
        return cold + self.hot.bytes_overlapping(matchers, start_ns, end_ns, limit - cold)

    # ------------------------------------------------------------------
    # Tier movement
    # ------------------------------------------------------------------
    def flush_all(self) -> int:
        return self.hot.flush_all()

    def flush_aged(self, now_ns: int) -> int:
        return self.hot.flush_aged(now_ns)

    def flush_to_cold(self) -> FlushResult:
        """Seal aged chunks, ship everything sealed, free hot memory."""
        return self.shipper.flush()

    def compact(self) -> CompactionResult:
        return self.compactor.run()

    # ------------------------------------------------------------------
    # Retention across both tiers
    # ------------------------------------------------------------------
    def delete_before(self, cutoff_ns: int) -> int:
        """Chunk-granularity retention on both tiers; returns chunks
        dropped (hot) plus objects deleted (cold)."""
        dropped = self.hot.delete_before(cutoff_ns)
        dropped += self.compactor.delete_chunks_before(cutoff_ns)
        return dropped

    def expired_entries(
        self, cutoff_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """What :meth:`delete_before` would doom, merged cold before hot
        as a read merges them — entries flushed but still WAL-resident in
        a replica count once."""
        return merge_stream_columns(
            self.gateway.expired_entries(cutoff_ns)
            + self.hot.expired_entries(cutoff_ns),
            in_copy_order=True,
        )

    # ------------------------------------------------------------------
    # Accounting: resident figures are the hot tier's (that is the
    # memory story); the cold tier reports its own set
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        return self.hot.stats

    def stream_count(self) -> int:
        hot_labels = set(self.hot.stream_labels())
        return len(hot_labels | self.index.stream_labels())

    def stream_labels(self, matchers: Sequence[Matcher] = ()) -> list[LabelSet]:
        labels = set(self.hot.stream_labels(matchers)) | self.index.stream_labels(matchers)
        return sorted(labels, key=lambda ls: ls.items_tuple())

    def chunk_count(self) -> int:
        return self.hot.chunk_count()

    def stored_bytes(self) -> int:
        return self.hot.stored_bytes()

    def uncompressed_bytes(self) -> int:
        return self.hot.uncompressed_bytes()

    def index_bytes(self) -> int:
        return self.hot.index_bytes()

    def compression_ratio(self) -> float:
        return self.hot.compression_ratio()

    def oldest_entry_ns(self) -> int | None:
        candidates = [
            ts
            for ts in (self.hot.oldest_entry_ns(), self.gateway.oldest_entry_ns())
            if ts is not None
        ]
        return min(candidates) if candidates else None

    # Cold-tier accounting for the exporter / storage report.
    def cold_chunk_count(self) -> int:
        return self.index.ref_count()

    def cold_bytes(self) -> int:
        return self.objstore.stored_bytes(self.index.bucket)

    def cold_entry_count(self) -> int:
        return self.index.entry_count()
