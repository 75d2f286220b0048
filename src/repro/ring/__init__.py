"""Replicated, WAL-backed distributed ingest — the Loki write path.

The paper's OMNI warehouse sustains hundreds of thousands of messages per
second across an 8-worker Loki deployment; production Loki does that with
its *microservices* write path, which this package reimplements:

* :mod:`repro.ring.hashring` — the consistent-hash **ring**: every
  ingester owns many virtual-node tokens, stream placement is a pure
  function of the token set, and a join/leave moves only the streams
  adjacent to the new/removed tokens;
* :mod:`repro.ring.wal` — the per-ingester **write-ahead log**:
  segmented, checkpointed, replayed on restart, tolerant of a torn tail
  record;
* :mod:`repro.ring.ingester` — one replica: a :class:`~repro.loki.store.
  LokiStore` whose accepted writes are logged before they are applied,
  so a crash loses nothing that was acknowledged;
* :mod:`repro.ring.distributor` — validates pushes, fans each stream out
  to ``replication_factor`` ingesters and acknowledges at write
  **quorum**; the read path merges and deduplicates entries across
  replicas so a query is complete while any single replica is down;
* :mod:`repro.ring.cluster` — :class:`RingLokiCluster`, the drop-in
  store facade the warehouse/LogQL engine run against.
"""

from repro.ring.hashring import HashRing
from repro.ring.wal import WalSegment, WriteAheadLog
from repro.ring.ingester import Ingester, IngesterState
from repro.ring.distributor import Distributor, PushResult, QuorumError
from repro.ring.cluster import RingLokiCluster

__all__ = [
    "HashRing",
    "WalSegment",
    "WriteAheadLog",
    "Ingester",
    "IngesterState",
    "Distributor",
    "PushResult",
    "QuorumError",
    "RingLokiCluster",
]
