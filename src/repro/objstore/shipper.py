"""The chunk shipper: sealed chunks leave memory for the object store.

Each flush walks the hot tier's ``active_stores()`` (a bare
``LokiStore`` is its own one, the RF-3 ring its live replicas), uploads
each sealed chunk's compressed payload under a content-addressed key,
registers a :class:`ChunkRef` in the shipper index, and only *then*
drops the resident copy — a chunk is never memory-released before its
bytes are durable cold.  Because the key is a content hash and replicas
seal byte-identical chunks, RF-3 uploads collapse to one object per
logical chunk: replicas two and three count as dedups and are dropped
without a second PUT.

An object-store outage aborts the flush mid-way: whatever was not yet
uploaded stays resident and the failure is counted (the
``ObjstoreFlushStalled`` alert's signal).  A flush with nothing to ship
still probes the backend with a heartbeat PUT, so a stalled tier is
detected even when the cluster is idle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.simclock import SimClock
from repro.loki.store import LokiStore
from repro.objstore.index import ShipperIndex
from repro.objstore.objectstore import ObjectStore, ObjectStoreUnavailable
from repro.tempo.model import SpanStatus
from repro.tempo.tracer import Tracer

HEARTBEAT_KEY = "uploader/heartbeat"


@dataclass
class FlushResult:
    """One flush cycle's outcome (all counts are this-cycle, not totals)."""

    ok: bool = True
    chunks_shipped: int = 0
    chunks_deduped: int = 0
    bytes_shipped: int = 0
    bytes_freed: int = 0
    index_files: int = 0


class ChunkShipper:
    """Moves sealed chunks from the hot tier into the object store."""

    def __init__(
        self,
        source: LokiStore,
        store: ObjectStore,
        index: ShipperIndex,
        clock: SimClock,
        tracer: Tracer,
    ) -> None:
        self._source = source
        self._objstore = store
        self._index = index
        self._clock = clock
        self._tracer = tracer
        self.flushes = 0
        self.flush_failures = 0
        #: Failed cycles since the last success — the
        #: ``ObjstoreFlushStalled`` signal: positive for the whole of an
        #: outage, back to zero the moment a flush lands again.
        self.consecutive_failures = 0
        self.chunks_shipped_total = 0
        self.chunks_deduped_total = 0
        self.bytes_shipped_total = 0
        self.bytes_freed_total = 0
        self.last_success_ns: int | None = None
        self.last_failure_ns: int | None = None

    @property
    def bucket(self) -> str:
        return self._index.bucket

    def _ship_store(self, store: LokiStore, result: FlushResult) -> bool:
        """Flush one store's sealed chunks; True if any PUT happened."""
        put_happened = False
        for labels, chunk in store.sealed_chunks():
            _, put = self._index.write_chunk(labels, chunk)
            if put:
                put_happened = True
                result.chunks_shipped += 1
                self.chunks_shipped_total += 1
                result.bytes_shipped += put
                self.bytes_shipped_total += put
            else:
                # A replica (or WAL-replayed re-seal) of a chunk already
                # shipped: the object is durable, just free the memory.
                result.chunks_deduped += 1
                self.chunks_deduped_total += 1
            freed = chunk.stored_bytes()
            # Only memory is released: a ring replica's WAL still holds
            # the entries, so a crash + replay re-seals them, and the
            # re-flushed copy dedups against this object by content
            # hash, keeping flush + crash idempotent.
            store.drop_chunk(labels, chunk)
            result.bytes_freed += freed
            self.bytes_freed_total += freed
        return put_happened

    def flush(self) -> FlushResult:
        """One flush cycle: seal aged chunks, ship everything sealed,
        persist dirty index periods.  Returns this cycle's counts."""
        now = self._clock.now_ns
        self.flushes += 1
        result = FlushResult()
        try:
            self._source.flush_aged(now)
            touched_backend = False
            for store in self._source.active_stores():
                touched_backend |= self._ship_store(store, result)
            result.index_files = self._index.persist_dirty()
            touched_backend |= result.index_files > 0
            if not touched_backend:
                # Idle cycle: probe the backend so an outage is observed
                # (and counted) even with nothing to ship.
                self._objstore.put(self.bucket, HEARTBEAT_KEY, b"alive")
            self.last_success_ns = now
            self.consecutive_failures = 0
        except ObjectStoreUnavailable:
            result.ok = False
            self.flush_failures += 1
            self.consecutive_failures += 1
            self.last_failure_ns = now
        self._tracer.record(
            "shipper",
            "objstore.flush",
            start_ns=now,
            attributes={
                "chunks_shipped": result.chunks_shipped,
                "chunks_deduped": result.chunks_deduped,
                "bytes_shipped": result.bytes_shipped,
                "index_files": result.index_files,
            },
            status=SpanStatus.OK if result.ok else SpanStatus.ERROR,
        )
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def dedup_ratio(self) -> float:
        """Fraction of flushed chunks that were already cold — ≈ (RF-1)/RF
        on a healthy RF-replicated ring."""
        total = self.chunks_shipped_total + self.chunks_deduped_total
        return self.chunks_deduped_total / total if total else 0.0

    def counters(self) -> dict[str, int]:
        return {
            "flushes": self.flushes,
            "flush_failures": self.flush_failures,
            "consecutive_failures": self.consecutive_failures,
            "chunks_shipped": self.chunks_shipped_total,
            "chunks_deduped": self.chunks_deduped_total,
            "bytes_shipped": self.bytes_shipped_total,
            "bytes_freed": self.bytes_freed_total,
        }
