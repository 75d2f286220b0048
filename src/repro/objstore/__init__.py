"""repro.objstore — Loki's tiered chunk storage, reproduced.

The hot tier (ingester memory, optionally the RF-3 ring) keeps only
recent, open-or-just-sealed chunks; everything sealed ships to a
simulated S3-like :class:`ObjectStore` through the :class:`ChunkShipper`
and its period-partitioned :class:`ShipperIndex`.  A :class:`Compactor`
merges small objects, deduplicates what replication and WAL replay
multiplied, and applies delete requests at chunk
granularity; a :class:`StoreGateway` serves historical selects straight
from the object store.  :class:`TieredLokiStore` snaps the pieces behind
the ordinary store surface so the LogQL engine, the ruler and the
lifecycle run unchanged with the tier on.
"""

from repro.objstore.compactor import (
    CompactionPolicy,
    CompactionResult,
    Compactor,
    DeleteRequest,
)
from repro.objstore.gateway import StoreGateway
from repro.objstore.index import ChunkRef, ShipperIndex, chunk_object_key
from repro.objstore.objectstore import (
    ObjectStore,
    ObjectStoreConfig,
    ObjectStoreUnavailable,
)
from repro.objstore.shipper import HEARTBEAT_KEY, ChunkShipper, FlushResult
from repro.objstore.tiered import TieredLokiStore

__all__ = [
    "ChunkRef",
    "ChunkShipper",
    "CompactionPolicy",
    "CompactionResult",
    "Compactor",
    "DeleteRequest",
    "FlushResult",
    "HEARTBEAT_KEY",
    "ObjectStore",
    "ObjectStoreConfig",
    "ObjectStoreUnavailable",
    "ShipperIndex",
    "StoreGateway",
    "TieredLokiStore",
    "chunk_object_key",
]
