"""The compactor: fewer, bigger, deduplicated cold objects.

Two jobs, as in Loki's compactor component:

* **Merge** — within one index period, a stream's many small chunk
  objects are fetched, merged in timestamp order, and rewritten as few
  target-sized objects; the small originals are deleted.  Entry-level
  duplicates (divergent replica chunks from crash windows, where content
  hashing could not dedup at ship time) collapse here via the same
  max-multiplicity merge the ring's read path uses.
* **Delete requests** — explicit, tenant-scoped, matcher + time-window
  requests (GDPR-style) processed at chunk granularity on the next run.

Retention is not a job of its own: the OMNI lifecycle archives what aged
out, then deletes it through the tiered store's ``delete_before``, which
reaches :meth:`Compactor.delete_chunks_before` for the cold tier.

After merges and deletes a run makes one pass over the derived block
stores it was given (bloom and pattern blocks, DESIGN §11): a stream-period
group stale for any of them has its chunks fetched and merged once, and
every stale kind is built from that.  Each run finishes by persisting
dirty index periods and derived blocks, and collapsing every period's
snapshot pile to a single file.  An outage aborts the run and
counts a failure; whatever was already rewritten stays consistent
because an object is only deleted after its replacement is durable.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet, Matcher
from repro.common.simclock import SimClock
from repro.loki.chunks import ChunkPolicy, decode, pack_chunks
from repro.loki.model import LogEntry
from repro.objstore.blocks import BlockStore
from repro.objstore.index import ChunkRef, ShipperIndex
from repro.objstore.objectstore import ObjectStore, ObjectStoreUnavailable
from repro.ring.merge import merge_replica_columns
from repro.tempo.model import SpanStatus
from repro.tempo.tracer import Tracer

# Merged chunks are sealed by size only; a compactor never ages chunks.
_NEVER_AGE_NS = 10**18


@dataclass(frozen=True)
class CompactionPolicy:
    """When to merge: any stream with at least ``min_merge_chunks`` in a
    period is rewritten into objects of ~``target_object_bytes``."""

    target_object_bytes: int = 1 << 20
    min_merge_chunks: int = 2

    def __post_init__(self) -> None:
        if self.target_object_bytes < 1:
            raise ValidationError("target object size must be positive")
        if self.min_merge_chunks < 2:
            raise ValidationError("min_merge_chunks must be >= 2")


@dataclass
class DeleteRequest:
    """An explicit chunk-level delete: tenant + matchers + time window.

    Processed on the next compactor run; only chunks *wholly inside*
    ``[start_ns, end_ns)`` are deleted (chunk granularity, like Loki)."""

    request_id: int
    tenant: str
    matchers: tuple[Matcher, ...]
    start_ns: int
    end_ns: int
    processed: bool = False
    chunks_deleted: int = 0


@dataclass
class CompactionResult:
    """One run's outcome."""

    ok: bool = True
    groups_examined: int = 0
    chunks_merged: int = 0
    chunks_written: int = 0
    objects_deleted: int = 0
    entries_in: int = 0
    entries_out: int = 0
    duplicates_dropped: int = 0
    delete_requests_processed: int = 0
    index_files_removed: int = 0


class Compactor:
    """Merges and deduplicates cold chunks period by period."""

    def __init__(
        self,
        store: ObjectStore,
        index: ShipperIndex,
        clock: SimClock,
        policy: CompactionPolicy | None = None,
        derived: Sequence[BlockStore] = (),
        *,
        tracer: Tracer,
    ) -> None:
        self._objstore = store
        self._index = index
        self._clock = clock
        self.policy = policy or CompactionPolicy()
        self._tracer = tracer
        #: The derived block stores this compactor writes: it already
        #: holds every stream-period's entries when it runs.
        self.derived = tuple(derived)
        self._chunk_policy = ChunkPolicy(
            target_size_bytes=self.policy.target_object_bytes,
            max_age_ns=_NEVER_AGE_NS,
        )
        self.delete_requests: list[DeleteRequest] = []
        self._next_request_id = 1
        self.runs = 0
        self.run_failures = 0
        self.chunks_merged_total = 0
        self.chunks_written_total = 0
        self.duplicates_dropped_total = 0
        #: Chunks deleted by :meth:`delete_chunks_before` (retention) and
        #: by delete requests.
        self.retention_deleted_total = 0
        self.request_deleted_total = 0
        self.index_files_removed_total = 0
        self.last_success_ns: int | None = None

    @property
    def bucket(self) -> str:
        return self._index.bucket

    # ------------------------------------------------------------------
    # Delete requests
    # ------------------------------------------------------------------
    def request_delete(
        self,
        tenant: str,
        matchers: list[Matcher] | tuple[Matcher, ...],
        start_ns: int,
        end_ns: int,
    ) -> DeleteRequest:
        if end_ns <= start_ns:
            raise ValidationError("delete request needs a non-empty window")
        request = DeleteRequest(
            request_id=self._next_request_id,
            tenant=tenant,
            matchers=tuple(matchers),
            start_ns=start_ns,
            end_ns=end_ns,
        )
        self._next_request_id += 1
        self.delete_requests.append(request)
        return request

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _fetch_columns(self, ref: ChunkRef) -> tuple[list[LogEntry], array]:
        return decode(self._objstore.get(self.bucket, ref.key))

    def _delete_ref(self, ref: ChunkRef) -> None:
        self._objstore.delete(self.bucket, ref.key)
        self._index.remove(ref.key)

    def _compact_group(
        self, labels: LabelSet, refs: list[ChunkRef], result: CompactionResult
    ) -> None:
        refs = sorted(refs, key=lambda r: (r.first_ts_ns, r.last_ts_ns, r.key))
        parts = [self._fetch_columns(ref) for ref in refs]
        entries_in = sum(len(entries) for entries, _ts in parts)
        # Max-multiplicity merge: disjoint sequential chunks concatenate
        # unchanged; overlapping divergent-replica chunks dedup per
        # (timestamp, line), the same semantics the ring read path uses.
        merged, _ts = merge_replica_columns(parts)
        new_keys: set[str] = set()
        for chunk in pack_chunks(merged, self._chunk_policy):
            key, put = self._index.write_chunk(labels, chunk)
            new_keys.add(key)
            if put:
                result.chunks_written += 1
                self.chunks_written_total += 1
        for ref in refs:
            if ref.key not in new_keys:
                self._delete_ref(ref)
                result.objects_deleted += 1
        result.chunks_merged += len(refs)
        self.chunks_merged_total += len(refs)
        result.entries_in += entries_in
        result.entries_out += len(merged)
        result.duplicates_dropped += entries_in - len(merged)
        self.duplicates_dropped_total += entries_in - len(merged)

    def _compact_period(self, period: int, result: CompactionResult) -> None:
        for _tenant, labels, refs in self._index.streams_in_period(period):
            result.groups_examined += 1
            if len(refs) < self.policy.min_merge_chunks:
                continue
            self._compact_group(labels, refs, result)

    # ------------------------------------------------------------------
    # Derived blocks
    # ------------------------------------------------------------------
    def _build_derived(self) -> None:
        """(Re)build every derived block that is stale for its group.

        Runs after merge and deletes so the blocks describe the bucket
        as it will be read.  A group's chunks are fetched and merged once
        for all the kinds stale on it; a kind pins the exact chunk-key
        set it was built from, so a chunk shipped after this run is
        outside every block and never judged on a stale block's word.
        """
        for period in self._index.periods():
            for tenant, labels, refs in self._index.streams_in_period(period):
                keys = frozenset(ref.key for ref in refs)
                stale = [
                    store
                    for store in self.derived
                    if store.needs_build(tenant, labels, period, keys)
                ]
                if not stale:
                    continue
                entries, _ts = merge_replica_columns(
                    [self._fetch_columns(ref) for ref in refs]
                )
                for store in stale:
                    store.build_block(tenant, labels, period, entries, keys)

    # ------------------------------------------------------------------
    # Deletes
    # ------------------------------------------------------------------
    def delete_chunks_before(self, cutoff_ns: int) -> int:
        """Drop every cold chunk wholly before ``cutoff_ns``; straddling
        chunks are kept (chunk granularity).  Returns chunks deleted."""
        deleted = 0
        for ref in self._index.refs_wholly_before(cutoff_ns):
            self._delete_ref(ref)
            deleted += 1
            self.retention_deleted_total += 1
        return deleted

    def _apply_delete_requests(self, result: CompactionResult) -> None:
        for request in self.delete_requests:
            if request.processed:
                continue
            doomed = [
                ref
                for ref in self._index.refs_overlapping(
                    request.start_ns, request.end_ns, tenant=request.tenant,
                    matchers=request.matchers,
                )
                if ref.first_ts_ns >= request.start_ns
                and ref.last_ts_ns < request.end_ns
            ]
            for ref in doomed:
                self._delete_ref(ref)
                result.objects_deleted += 1
                self.request_deleted_total += 1
            request.chunks_deleted = len(doomed)
            request.processed = True
            result.delete_requests_processed += 1

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self) -> CompactionResult:
        """One full compaction cycle over every period."""
        now = self._clock.now_ns
        self.runs += 1
        result = CompactionResult()
        try:
            for period in self._index.periods():
                self._compact_period(period, result)
            self._apply_delete_requests(result)
            if self.derived:
                self._build_derived()
            self._index.persist_dirty()
            for store in self.derived:
                store.persist_dirty()
            for period in self._index.periods():
                removed = self._index.compact_period_files(period)
                result.index_files_removed += removed
                self.index_files_removed_total += removed
            self.last_success_ns = now
        except ObjectStoreUnavailable:
            result.ok = False
            self.run_failures += 1
        self._tracer.record(
            "compactor",
            "objstore.compact",
            start_ns=now,
            attributes={
                "chunks_merged": result.chunks_merged,
                "chunks_written": result.chunks_written,
                "duplicates_dropped": result.duplicates_dropped,
            },
            status=SpanStatus.OK if result.ok else SpanStatus.ERROR,
        )
        return result

    def counters(self) -> dict[str, int]:
        return {
            "runs": self.runs,
            "run_failures": self.run_failures,
            "chunks_merged": self.chunks_merged_total,
            "chunks_written": self.chunks_written_total,
            "duplicates_dropped": self.duplicates_dropped_total,
            "retention_deleted": self.retention_deleted_total,
            "request_deleted": self.request_deleted_total,
            "index_files_removed": self.index_files_removed_total,
        }
