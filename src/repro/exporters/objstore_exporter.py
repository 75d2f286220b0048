"""Object-storage exporter: the cold tier's health for vmagent.

A tiered store only earns its keep if flushes keep happening — resident
memory stays bounded *because* sealed chunks leave it — so the headline
signal here is ``objstore_flush_failures_consecutive``: failed flush
cycles since the last success.  Unlike a since-last-scrape delta (which
would blink back to zero between flush intervals and never sustain the
rule's ``for_`` window, since flushes run less often than scrapes), a
consecutive-failure gauge stays positive for the whole of an outage and
drops to zero the moment a flush lands, so ``ObjstoreFlushStalled``
fires for real stalls and auto-resolves on recovery.

Alongside the alert signal: bucket inventory (objects, bytes, index
files), shipper throughput and dedup ratio, compaction effectiveness,
and gateway cold-read latency for the "Object Storage" dashboard.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.simclock import NANOS_PER_SECOND
from repro.exporters.exporter import Exporter, Reading
from repro.objstore.compactor import Compactor
from repro.objstore.gateway import StoreGateway
from repro.objstore.index import INDEX_PREFIX, ShipperIndex
from repro.objstore.objectstore import ObjectStore
from repro.objstore.shipper import ChunkShipper

_STORE = (
    ("objstore_objects", "gauge", "Objects resident in the bucket, by kind."),
    ("objstore_bytes", "gauge", "Bytes resident in the bucket, by kind."),
    ("objstore_requests_total", "counter", "Backend requests, by operation."),
    ("objstore_transferred_bytes_total", "counter",
     "Bytes moved to/from the backend."),
    ("objstore_backend_down", "gauge",
     "Whether the backend is currently refusing requests."),
    ("objstore_outage_rejections_total", "counter",
     "Requests refused while the backend was down."),
    ("objstore_flushes_total", "counter", "Flush cycles attempted, by outcome."),
    ("objstore_flush_failures_consecutive", "gauge",
     "Failed flush cycles since the last success (alert signal)."),
    ("objstore_chunks_flushed_total", "counter",
     "Chunks leaving ingester memory, by disposition."),
    ("objstore_flush_bytes_total", "counter",
     "Bytes uploaded vs. resident bytes freed by flushes."),
    ("objstore_dedup_ratio", "gauge",
     "Fraction of flushed chunks deduplicated (≈ (RF-1)/RF when "
     "the ring is healthy)."),
    ("objstore_index_chunk_refs", "gauge", "Chunk refs held by the shipper index."),
)
_COMPACTOR = (
    ("objstore_compaction_runs_total", "counter", "Compaction runs, by outcome."),
    ("objstore_compaction_chunks_total", "counter",
     "Chunk objects consumed and produced by compaction."),
    ("objstore_compaction_duplicates_dropped_total", "counter",
     "Duplicate entries removed while merging chunks."),
    ("objstore_retention_chunks_deleted_total", "counter",
     "Cold chunks deleted by retention and delete requests."),
)
_GATEWAY = (
    ("objstore_gateway_queries_total", "counter",
     "Cold selects served by the store-gateway."),
    ("objstore_gateway_chunks_fetched_total", "counter",
     "Chunk objects fetched for cold selects."),
    ("objstore_gateway_last_query_seconds", "gauge",
     "Accounted object-store latency of the last cold select."),
)


def _read_store(
    store: ObjectStore, index: ShipperIndex, shipper: ChunkShipper
) -> Iterator[Reading]:
    bucket = index.bucket
    kinds = (("chunk", "chunks/"), ("index", INDEX_PREFIX))
    for kind, prefix in kinds:
        count = store.object_count(bucket, prefix=prefix)
        yield "objstore_objects", count, {"bucket": bucket, "kind": kind}
    for kind, prefix in kinds:
        stored = store.stored_bytes(bucket, prefix=prefix)
        yield "objstore_bytes", stored, {"bucket": bucket, "kind": kind}
    counters = store.counters()
    for op in ("puts", "gets", "deletes", "lists"):
        yield "objstore_requests_total", counters[op], {"op": op.rstrip("s")}
    for direction in ("in", "out"):
        moved = counters[f"bytes_{direction}"]
        yield "objstore_transferred_bytes_total", moved, {"direction": direction}
    yield "objstore_backend_down", store.outage, {"bucket": bucket}
    yield "objstore_outage_rejections_total", counters["outage_rejections"], None

    ship = shipper.counters()
    flushed = ship["flushes"] - ship["flush_failures"]
    yield "objstore_flushes_total", flushed, {"outcome": "ok"}
    yield "objstore_flushes_total", ship["flush_failures"], {"outcome": "failed"}
    stalled = ship["consecutive_failures"]
    yield "objstore_flush_failures_consecutive", stalled, None
    for disposition in ("shipped", "deduped"):
        chunks = ship[f"chunks_{disposition}"]
        yield "objstore_chunks_flushed_total", chunks, {"disposition": disposition}
    for kind in ("shipped", "freed"):
        yield "objstore_flush_bytes_total", ship[f"bytes_{kind}"], {"kind": kind}
    yield "objstore_dedup_ratio", shipper.dedup_ratio(), None
    yield "objstore_index_chunk_refs", index.ref_count(), None


def _read_compactor(compactor: Compactor) -> Iterator[Reading]:
    comp = compactor.counters()
    ran = comp["runs"] - comp["run_failures"]
    yield "objstore_compaction_runs_total", ran, {"outcome": "ok"}
    failed = comp["run_failures"]
    yield "objstore_compaction_runs_total", failed, {"outcome": "failed"}
    merged = comp["chunks_merged"]
    yield "objstore_compaction_chunks_total", merged, {"direction": "in"}
    written = comp["chunks_written"]
    yield "objstore_compaction_chunks_total", written, {"direction": "out"}
    dropped = comp["duplicates_dropped"]
    yield "objstore_compaction_duplicates_dropped_total", dropped, None
    expired = comp["retention_deleted"]
    yield "objstore_retention_chunks_deleted_total", expired, {"reason": "retention"}
    requested = comp["request_deleted"]
    yield "objstore_retention_chunks_deleted_total", requested, {"reason": "request"}


def _read_gateway(gateway: StoreGateway) -> Iterator[Reading]:
    gw = gateway.counters()
    yield "objstore_gateway_queries_total", gw["queries"], None
    yield "objstore_gateway_chunks_fetched_total", gw["chunks_fetched"], None
    latency = gateway.last_query_latency_ns / NANOS_PER_SECOND
    yield "objstore_gateway_last_query_seconds", latency, None


class ObjstoreExporter(Exporter):
    """Exports object-store, shipper, compactor and gateway counters."""

    def __init__(
        self,
        store: ObjectStore,
        index: ShipperIndex,
        shipper: ChunkShipper,
        compactor: Compactor | None = None,
        gateway: StoreGateway | None = None,
    ) -> None:
        super().__init__(
            (_STORE, _read_store, store, index, shipper),
            (_COMPACTOR, _read_compactor, compactor),
            (_GATEWAY, _read_gateway, gateway),
        )
