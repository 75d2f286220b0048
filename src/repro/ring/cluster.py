"""RingLokiCluster: the replicated write path behind a LokiStore facade.

Owns the ring, the ingesters and the distributor, and exposes the store
surface the rest of the stack consumes (``push``/``push_stream``/
``select_columns`` plus the accounting and maintenance methods), so the OMNI
warehouse, the LogQL engine and the lifecycle can run
unchanged against a replicated, crash-tolerant ingest tier.

Sizes and chunk counts reported here are **physical** — summed across
replicas, so RF=3 really shows 3× the storage, which is the point of the
storage accounting.  Logical (acknowledged-once) ingest lives on the
distributor: ``distributor.entries_accepted``.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Sequence

from repro.common.errors import NotFoundError, ValidationError
from repro.common.labels import LabelSet, Matcher
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.loki.store import EntrySelect, LokiStore, StoreStats, aggregate_stats
from repro.ring.distributor import REPLICATION_FACTOR, Distributor
from repro.ring.hashring import HashRing
from repro.ring.ingester import Ingester
from repro.ring.merge import merge_stream_columns
from repro.tempo.tracer import Tracer
from repro.tenancy.sharding import ShuffleSharder


class RingLokiCluster(EntrySelect):
    """N ingesters on a hash ring behind one distributor."""

    def __init__(
        self,
        ingesters: int = 4,
        replication_factor: int = REPLICATION_FACTOR,
        policy: ChunkPolicy | None = None,
        shard_size: int = 0,
        zones: int = 0,
        *,
        tracer: Tracer,
    ) -> None:
        """``shard_size`` > 0 turns on shuffle sharding: streams carrying
        a ``tenant`` label confine their replicas to the tenant's subring
        of that many ingesters.  ``zones`` > 0 spreads the ingesters
        round-robin over that many availability zones and turns on
        zone-aware placement: each stream's replicas land in as many
        distinct zones as possible."""
        if ingesters < 1:
            raise ValidationError("need at least one ingester")
        if zones < 0:
            raise ValidationError("zones must be >= 0")
        if zones > ingesters:
            raise ValidationError(
                f"{zones} zones cannot all be populated by {ingesters} "
                f"ingester(s)"
            )
        self.ring = HashRing()
        self.zones = zones
        self.ingesters: dict[str, Ingester] = {}
        for i in range(ingesters):
            ingester_id = f"ingester-{i}"
            self.ingesters[ingester_id] = Ingester(ingester_id, policy=policy)
            self.ring.join(ingester_id)
            if zones > 0:
                self.ring.set_zone(ingester_id, f"zone-{i % zones}")
        self._policy = policy
        self.sharder = ShuffleSharder(self.ring, shard_size)
        self.distributor = Distributor(
            self.ring,
            self.ingesters,
            replication_factor=replication_factor,
            tracer=tracer,
            sharder=self.sharder,
            zone_aware=zones > 0,
        )
        #: Failure-detector view (repro.selfheal); attached by the
        #: SelfHealManager, ``None`` until then.
        self.memberlist = None

    # ------------------------------------------------------------------
    # Store facade: ingest
    # ------------------------------------------------------------------
    def push(self, request: PushRequest) -> int:
        return self.distributor.push(request).accepted

    def push_stream(
        self, labels: LabelSet | Mapping[str, str], entries: Iterable[LogEntry]
    ) -> int:
        labelset = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        request = PushRequest(
            streams=(PushStream(labels=labelset, entries=tuple(entries)),)
        )
        return self.push(request)

    # ------------------------------------------------------------------
    # Store facade: reads + maintenance
    # ------------------------------------------------------------------
    def select_columns(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        shard: tuple[int, int] | None = None,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """The quorum read; ``line_contains`` is a pruning hint a hot
        replica has no use for."""
        return self.distributor.select_columns(matchers, start_ns, end_ns, shard=shard)

    def bytes_overlapping(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int, limit: int
    ) -> int:
        return self.distributor.bytes_overlapping(matchers, start_ns, end_ns, limit)

    def active_stores(self) -> list["LokiStore"]:
        """The live replicas' stores, in ingester order — the surface the
        chunk shipper walks when flushing sealed chunks to the cold tier.
        Crashed replicas are skipped; whatever they held resident is
        either already flushed, replicated, or comes back via WAL replay
        (and re-flushed copies dedup away by content hash)."""
        return [i.store for i in self.ingesters.values() if i.active]

    def flush_all(self) -> int:
        return sum(store.flush_all() for store in self.active_stores())

    def flush_aged(self, now_ns: int) -> int:
        return sum(store.flush_aged(now_ns) for store in self.active_stores())

    def delete_before(self, cutoff_ns: int) -> int:
        return sum(
            store.delete_before(cutoff_ns) for store in self.active_stores()
        )

    def expired_entries(
        self, cutoff_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """What retention would archive, merged across replicas like a
        read: a replica that missed a crash window's entries still
        doomed the others', and :meth:`delete_before` drops them all."""
        return merge_stream_columns(
            triple
            for store in self.active_stores()
            for triple in store.expired_entries(cutoff_ns)
        )

    # ------------------------------------------------------------------
    # Lifecycle / chaos hooks
    # ------------------------------------------------------------------
    def _ingester(self, ingester_id: str) -> Ingester:
        try:
            return self.ingesters[ingester_id]
        except KeyError:
            raise NotFoundError(f"no such ingester: {ingester_id}") from None

    def crash_ingester(self, ingester_id: str) -> None:
        self._ingester(ingester_id).crash()

    def restart_ingester(self, ingester_id: str) -> int:
        """Restart (WAL replay included); returns records replayed."""
        return self._ingester(ingester_id).restart()

    def checkpoint_all(self) -> int:
        """Checkpoint every live ingester; returns segments dropped."""
        return sum(
            i.checkpoint() for i in self.ingesters.values() if i.active
        )

    def join_ingester(
        self, ingester_id: str, zone: str | None = None
    ) -> Ingester:
        """Scale out: new empty ingester takes its token ranges for
        *future* writes (historical chunks stay put; reads fan out to
        every replica, so nothing needs migrating to stay queryable)."""
        if ingester_id in self.ingesters:
            raise ValidationError(f"ingester {ingester_id} already exists")
        ingester = Ingester(ingester_id, policy=self._policy)
        self.ingesters[ingester_id] = ingester
        self.ring.join(ingester_id)
        if zone is not None:
            self.ring.set_zone(ingester_id, zone)
        return ingester

    def leave_ingester(self, ingester_id: str) -> None:
        """Scale in: the member leaves the ring; its store keeps serving
        reads for data it already holds until it is finally removed."""
        self._ingester(ingester_id)
        self.ring.leave(ingester_id)

    def remove_ingester(self, ingester_id: str) -> None:
        """Forget a member entirely: drop it from the ring (if it still
        holds tokens) and from the ingester map.  The anti-entropy
        repairer calls this once a DEAD member's streams have been
        re-replicated — removing it earlier would lose its replicas'
        only copies."""
        self._ingester(ingester_id)
        if ingester_id in self.ring.members():
            self.ring.leave(ingester_id)
        del self.ingesters[ingester_id]

    def attach_memberlist(self, memberlist) -> None:
        """Hook the failure detector's shared view into the write/read
        paths: the distributor starts skipping SUSPECT/DEAD members."""
        self.memberlist = memberlist
        self.distributor.memberlist = memberlist

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """Physical totals summed across every replica store."""
        return aggregate_stats(i.store for i in self.ingesters.values())

    def stream_count(self) -> int:
        """Distinct streams cluster-wide (union across replicas)."""
        return len(set(self.stream_labels()))

    def stream_labels(self, matchers: Sequence[Matcher] = ()) -> list[LabelSet]:
        """Distinct stream label sets cluster-wide, sorted."""
        seen: set[LabelSet] = set()
        for ingester in self.ingesters.values():
            seen.update(ingester.store.stream_labels(matchers))
        return sorted(seen, key=lambda ls: ls.items_tuple())

    def chunk_count(self) -> int:
        return sum(i.store.chunk_count() for i in self.ingesters.values())

    def stored_bytes(self) -> int:
        return sum(i.store.stored_bytes() for i in self.ingesters.values())

    def uncompressed_bytes(self) -> int:
        return sum(
            i.store.uncompressed_bytes() for i in self.ingesters.values()
        )

    def index_bytes(self) -> int:
        return sum(i.store.index_bytes() for i in self.ingesters.values())

    def compression_ratio(self) -> float:
        stored = self.stored_bytes()
        return self.uncompressed_bytes() / stored if stored else 0.0

    def oldest_entry_ns(self) -> int | None:
        oldest: int | None = None
        for ingester in self.ingesters.values():
            candidate = ingester.store.oldest_entry_ns()
            if candidate is not None and (oldest is None or candidate < oldest):
                oldest = candidate
        return oldest

    def ring_health(self) -> dict[str, dict[str, float | str]]:
        """Per-ingester health snapshot for the exporter/dashboard.

        Numeric fields become per-ingester gauges.  With a failure
        detector attached the snapshot also carries the lifecycle view:
        ``state`` (the detector's verdict, not the process state — a
        gray-failed member shows ``suspect`` while still ACTIVE) and
        ``heartbeat_age_seconds`` since the member last heartbeat.
        """
        out: dict[str, dict[str, float | str]] = {}
        lifecycle = (
            self.memberlist.snapshot() if self.memberlist is not None else {}
        )
        for ingester_id, ingester in sorted(self.ingesters.items()):
            row: dict[str, float | str] = {
                "up": 1.0 if ingester.active else 0.0,
                "entries": float(ingester.store.stats.entries_ingested),
                "chunks": float(ingester.store.chunk_count()),
                "wal_segments": float(ingester.wal.segment_count()),
                "wal_bytes": float(ingester.wal.size_bytes()),
                "wal_records": float(ingester.wal.records_appended),
                "crashes": float(ingester.crashes),
                "restarts": float(ingester.restarts),
                "replayed": float(ingester.records_replayed_total),
            }
            zone = self.ring.zone(ingester_id)
            if zone is not None:
                row["zone"] = zone
            view = lifecycle.get(ingester_id)
            if view is None:
                row["state"] = "active" if ingester.active else "crashed"
            else:
                row["state"] = view.state.value
                row["heartbeat_age_seconds"] = view.heartbeat_age_seconds
            out[ingester_id] = row
        return out
