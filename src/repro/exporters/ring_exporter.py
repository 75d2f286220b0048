"""loki-ring exporter: ingest-ring health as Prometheus metrics.

What Loki serves from ``/metrics`` and ``/ring``, condensed: per-member
liveness and store/WAL gauges plus the distributor's write-path
counters.  These drive the "Ingest Ring" Grafana dashboard and the
``IngesterDown`` alerting rule — the monitoring stack watching its own
ingest tier, exactly as the kafka/blackbox exporters watch the bus.
"""

from __future__ import annotations

from typing import Iterator

from repro.exporters.exporter import Exporter, Reading
from repro.ring.cluster import RingLokiCluster

_RING = (
    ("loki_ring_members", "gauge", "Ingesters registered in the ring."),
    ("loki_ring_ingester_up", "gauge",
     "Whether the ingester is serving (1) or crashed (0)."),
    ("loki_ring_ingester_entries_total", "counter",
     "Entries resident in the ingester's store."),
    ("loki_ring_ingester_chunks", "gauge", "Chunks held by the ingester."),
    ("loki_ring_wal_segments", "gauge", "Live WAL segments awaiting checkpoint."),
    ("loki_ring_wal_bytes", "gauge",
     "Bytes held by the WAL (segments + checkpoint)."),
    ("loki_ring_wal_records_total", "counter", "Records ever appended to the WAL."),
    ("loki_ring_ingester_crashes_total", "counter",
     "Times the ingester process died."),
    ("ring_member_state", "gauge",
     "One-hot lifecycle state per ring member: the series with "
     "value 1 names the member's current state (active/suspect/"
     "dead/forgotten — process state when no detector attached)."),
    ("ring_member_heartbeat_age_seconds", "gauge",
     "Seconds since the member's last heartbeat (failure "
     "detector attached only)."),
    ("loki_ring_wal_replayed_records_total", "counter",
     "Records recovered via WAL replay across restarts."),
    ("loki_distributor_pushes_total", "counter",
     "Push requests handled by the distributor."),
    ("loki_distributor_entries_accepted_total", "counter",
     "Entries acknowledged at write quorum."),
    ("loki_distributor_replica_writes_failed_total", "counter",
     "Per-replica write attempts refused by a down ingester."),
    ("loki_distributor_quorum_failures_total", "counter",
     "Streams that could not reach a write quorum."),
)

#: Per-ingester families, by the ``ring_health()`` key that feeds them.
_PER_INGESTER = (
    ("loki_ring_ingester_up", "up"),
    ("loki_ring_ingester_entries_total", "entries"),
    ("loki_ring_ingester_chunks", "chunks"),
    ("loki_ring_wal_segments", "wal_segments"),
    ("loki_ring_wal_bytes", "wal_bytes"),
    ("loki_ring_wal_records_total", "wal_records"),
    ("loki_ring_ingester_crashes_total", "crashes"),
    ("loki_ring_wal_replayed_records_total", "replayed"),
)


def _read_ring(ring: RingLokiCluster) -> Iterator[Reading]:
    yield "loki_ring_members", len(ring.ring), None
    for ingester_id, health in ring.ring_health().items():
        labels = {"ingester": ingester_id}
        for family, key in _PER_INGESTER:
            yield family, health[key], labels
        current = str(health["state"])
        member = {"ingester": ingester_id, "zone": str(health.get("zone", ""))}
        for state in ("active", "suspect", "dead", "forgotten", "crashed"):
            if state != current and state == "crashed":
                continue  # plain process-state rows only when current
            yield "ring_member_state", state == current, {**member, "state": state}
        if "heartbeat_age_seconds" in health:
            age = health["heartbeat_age_seconds"]
            yield "ring_member_heartbeat_age_seconds", age, member
    distributor = ring.distributor
    yield "loki_distributor_pushes_total", distributor.pushes, None
    accepted = distributor.entries_accepted
    yield "loki_distributor_entries_accepted_total", accepted, None
    failed = distributor.replica_writes_failed
    yield "loki_distributor_replica_writes_failed_total", failed, None
    yield "loki_distributor_quorum_failures_total", distributor.quorum_failures, None


class RingExporter(Exporter):
    """Exports ring membership, per-ingester health and WAL state."""

    def __init__(self, ring: RingLokiCluster) -> None:
        super().__init__((_RING, _read_ring, ring))
