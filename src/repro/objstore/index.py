"""The shipper index: chunk refs partitioned by time period.

Loki's boltdb-shipper/TSDB index in miniature: the queryable metadata
for every shipped chunk — tenant, label set, time bounds, sizes, object
key — grouped into fixed periods (default one day) by the chunk's first
timestamp.  The in-memory maps answer gateway queries; per-period index
*files* in the object store make the metadata as durable as the chunks,
so :meth:`ShipperIndex.rebuild` can reconstruct the whole index from a
cold bucket.  :meth:`ShipperIndex.write_chunk` is the one chunk writer:
the shipper, the compactor and the lifecycle's archive all upload and
register chunks through it.

Every persist writes a complete snapshot of the dirty period under a
monotonically increasing sequence number; the newest file per period is
authoritative (so removals never resurrect), and
:meth:`compact_period_files` collapses the pile back to one file: the
compactor runs it per period, the lifecycle's sweep per dirty period.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable

from repro.common.errors import ValidationError
from repro.common.hashing import fnv1a_64, mix64
from repro.common.jsonutil import dumps_compact, loads
from repro.common.labels import LabelSet, Matcher
from repro.common.postings import PostingsIndex, check_shard
from repro.common.simclock import NANOS_PER_DAY
from repro.objstore.objectstore import ObjectStore
from repro.tenancy.limits import DEFAULT_TENANT, TENANT_LABEL

if TYPE_CHECKING:
    from repro.loki.chunks import Chunk

INDEX_PREFIX = "index/"
#: The bucket the cold tier's chunks, index files and derived blocks share.
CHUNK_BUCKET = "loki"
#: Index period: chunk refs, and the blocks derived from them, are
#: grouped by the day of their first timestamp.
INDEX_PERIOD_NS = NANOS_PER_DAY


def stream_fingerprint(labels: LabelSet) -> int:
    """64-bit fingerprint of a label set — the per-stream key prefix."""
    return labels.fingerprint()


def chunk_object_key(
    tenant: str, labels: LabelSet, period: int, chunk: "Chunk", payload: bytes
) -> str:
    """Content-addressed object key for a sealed chunk.

    ``chunks/<tenant>/<period>/<fingerprint>/<first>-<last>-<contenthash>``
    — the tenant prefix scopes listings, the fingerprint groups a
    stream's chunks, and the content hash is what makes RF-3 replicas
    (and WAL-replay re-flushes) of the same chunk collapse onto one
    object.
    """
    content_hash = mix64(fnv1a_64(payload))
    return (
        f"chunks/{tenant}/{period:012d}/{stream_fingerprint(labels):016x}/"
        f"{chunk.first_ts_ns}-{chunk.last_ts_ns}-{content_hash:016x}"
    )


@dataclass(frozen=True)
class ChunkRef:
    """Everything the read path needs to know without fetching the chunk."""

    tenant: str
    labels: LabelSet
    first_ts_ns: int
    last_ts_ns: int
    entry_count: int
    size_bytes: int
    uncompressed_bytes: int
    key: str
    period: int

    def order(self) -> tuple:
        """What :meth:`ShipperIndex.refs_wholly_before` sorts by."""
        return self.labels.items_tuple(), self.first_ts_ns, self.key

    def to_obj(self) -> dict:
        return {
            "t": self.tenant,
            "l": self.labels.to_dict(),
            "a": self.first_ts_ns,
            "b": self.last_ts_ns,
            "n": self.entry_count,
            "s": self.size_bytes,
            "u": self.uncompressed_bytes,
            "k": self.key,
            "p": self.period,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ChunkRef":
        return cls(
            tenant=obj["t"],
            labels=LabelSet(obj["l"]),
            first_ts_ns=int(obj["a"]),
            last_ts_ns=int(obj["b"]),
            entry_count=int(obj["n"]),
            size_bytes=int(obj["s"]),
            uncompressed_bytes=int(obj["u"]),
            key=obj["k"],
            period=int(obj["p"]),
        )


class ShipperIndex:
    """In-memory chunk-ref maps backed by per-period index files."""

    def __init__(
        self,
        store: ObjectStore,
        bucket: str = CHUNK_BUCKET,
        period_ns: int = INDEX_PERIOD_NS,
    ) -> None:
        if period_ns < 1:
            raise ValidationError("index period must be positive")
        self._store = store
        self.bucket = bucket
        self.period_ns = period_ns
        self._refs: dict[str, ChunkRef] = {}
        # Per (period, tenant): one postings table over its streams' label
        # sets and, by labels, each stream's refs in (first_ts_ns, key)
        # order beside ``reach``, the running maximum of their
        # last_ts_ns — so both ends of a time cut are bisects.
        self._tables: dict[tuple[int, str], tuple[PostingsIndex, dict]] = {}
        self._dirty: set[int] = set()
        self._seq = 0
        self.index_files_written = 0
        self.index_files_removed = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def period_of(self, ts_ns: int) -> int:
        return ts_ns // self.period_ns

    def write_chunk(self, labels: LabelSet, chunk: "Chunk") -> tuple[str, int]:
        """Upload a sealed chunk under its content key and index it, the
        tenant being the stream's ``tenant`` label.  A key already indexed
        (a replica's copy, a WAL re-seal, a merge that changed nothing) is
        not uploaded again.  Returns the key and the bytes uploaded."""
        payload = chunk.payload()
        tenant = labels.get(TENANT_LABEL, DEFAULT_TENANT)
        period = self.period_of(chunk.first_ts_ns or 0)
        key = chunk_object_key(tenant, labels, period, chunk, payload)
        if key in self._refs:
            return key, 0
        self._store.put(self.bucket, key, payload)
        self.add(
            ChunkRef(
                tenant=tenant,
                labels=labels,
                first_ts_ns=chunk.first_ts_ns or 0,
                last_ts_ns=chunk.last_ts_ns or 0,
                entry_count=chunk.entry_count,
                size_bytes=len(payload),
                uncompressed_bytes=chunk.uncompressed_bytes(),
                key=key,
                period=period,
            )
        )
        return key, len(payload)

    def add(self, ref: ChunkRef) -> bool:
        """Register a ref; returns False if the key is already indexed."""
        if ref.key in self._refs:
            return False
        self._insert(ref)
        self._dirty.add(ref.period)
        return True

    def _insert(self, ref: ChunkRef) -> None:
        self._refs[ref.key] = ref
        at = (ref.period, ref.tenant)
        if at not in self._tables:
            self._tables[at] = (PostingsIndex(key=LabelSet.items_tuple), {})
        table, streams = self._tables[at]
        if ref.labels not in streams:
            streams[ref.labels] = ([], [])
            table.add(ref.labels, ref.labels)
        refs, reach = streams[ref.labels]
        insort(refs, ref, key=attrgetter("first_ts_ns", "key"))
        reach[:] = accumulate((r.last_ts_ns for r in refs), max)

    def remove(self, key: str) -> bool:
        ref = self._refs.pop(key, None)
        if ref is None:
            return False
        at = (ref.period, ref.tenant)
        table, streams = self._tables[at]
        refs, reach = streams[ref.labels]
        refs.remove(ref)
        reach[:] = accumulate((r.last_ts_ns for r in refs), max)
        if not refs:
            del streams[ref.labels]
            table.remove(ref.labels)
            if not streams:
                del self._tables[at]
        # The period file must be rewritten even if now empty.
        self._dirty.add(ref.period)
        return True

    # ------------------------------------------------------------------
    # Queries (in-memory; uncharged — the index is resident metadata)
    # ------------------------------------------------------------------
    def ref_count(self) -> int:
        return len(self._refs)

    def refs(self) -> list[ChunkRef]:
        return [self._refs[key] for key in sorted(self._refs)]

    def periods(self) -> list[int]:
        return sorted({period for period, _ in self._tables})

    def _scan(self, period: int | None = None, tenant: str | None = None):
        """Every ref of one period and/or tenant, stream by stream."""
        for (p, t), (_, streams) in self._tables.items():
            if (period is None or p == period) and (tenant is None or t == tenant):
                for refs, _ in streams.values():
                    yield from refs

    def refs_in_period(self, period: int) -> list[ChunkRef]:
        return sorted(self._scan(period=period), key=attrgetter("key"))

    def streams_in_period(self, period: int) -> list[tuple[str, LabelSet, list[ChunkRef]]]:
        """Each ``(tenant, stream)`` of one period with its refs by key, in
        ``(tenant, labels)`` order — the compactor's unit of work."""
        return sorted(
            (
                (tenant, labels, sorted(refs, key=attrgetter("key")))
                for (p, tenant), (_, streams) in self._tables.items()
                if p == period
                for labels, (refs, _) in streams.items()
            ),
            key=lambda group: (group[0], group[1].items_tuple()),
        )

    def refs_overlapping(
        self,
        start_ns: int,
        end_ns: int,
        tenant: str | None = None,
        matchers: Iterable[Matcher] | None = None,
        shard: tuple[int, int] | None = None,
    ) -> list[ChunkRef]:
        """Refs with an entry span reaching into ``[start, end)``, cut to
        one tenant, the streams ``matchers`` select and a stream shard —
        in ``(period, tenant, labels)`` order, so each stream's refs are
        in ``(first_ts_ns, key)`` order with no sort of the whole list."""
        if shard is not None:
            check_shard(shard)  # even with no table to ask
        return list(self._overlapping(start_ns, end_ns, tenant, matchers, shard))

    def bytes_overlapping(
        self,
        start_ns: int,
        end_ns: int,
        matchers: Iterable[Matcher],
        limit: int,
    ) -> int:
        """Uncompressed bytes of :meth:`refs_overlapping`'s refs, summed
        no further than the first that brings the sum to ``limit``."""
        total = 0
        for ref in self._overlapping(start_ns, end_ns, None, matchers, None):
            total += ref.uncompressed_bytes
            if total >= limit:
                break
        return total

    def _overlapping(self, start_ns, end_ns, tenant, matchers, shard):
        """The refs reaching into ``[start, end)``, stream by stream in
        ``(period, tenant, labels)`` order: a stream's ``reach`` bisects
        to the first ref that may, and its refs are read until one starts
        at or after ``end``."""
        matchers = tuple(matchers or ())
        for at in sorted(self._tables):
            if tenant is None or at[1] == tenant:
                table, streams = self._tables[at]
                for labels in table.select(matchers, shard):
                    refs, reach = streams[labels]
                    if reach[-1] < start_ns:
                        continue  # every ref ends before the window
                    for ref in islice(refs, bisect_left(reach, start_ns), None):
                        if ref.first_ts_ns >= end_ns:
                            break
                        if ref.last_ts_ns >= start_ns:
                            yield ref

    def refs_wholly_before(self, cutoff_ns: int) -> list[ChunkRef]:
        """Refs whose entire time range precedes ``cutoff_ns`` — retention's
        unit of deletion, mirroring the hot store's chunk granularity."""
        return sorted(
            (r for r in self._scan() if r.last_ts_ns < cutoff_ns),
            key=ChunkRef.order,
        )

    def entry_count(self, tenant: str | None = None) -> int:
        return sum(ref.entry_count for ref in self._scan(tenant=tenant))

    def oldest_first_ts(self, tenant: str | None = None) -> int | None:
        return min((ref.first_ts_ns for ref in self._scan(tenant=tenant)), default=None)

    def stream_labels(self, matchers: Iterable[Matcher] = ()) -> set[LabelSet]:
        matchers = tuple(matchers)
        return {ls for table, _ in self._tables.values() for ls in table.select(matchers)}

    # ------------------------------------------------------------------
    # Durability: period files in the object store
    # ------------------------------------------------------------------
    def _period_prefix(self, period: int) -> str:
        return f"{INDEX_PREFIX}{period:012d}/"

    def _encode_period(self, period: int) -> bytes:
        refs = [ref.to_obj() for ref in self.refs_in_period(period)]
        return zlib.compress(dumps_compact({"refs": refs}).encode(), level=6)

    def persist_dirty(self) -> int:
        """Write one snapshot file per dirty period; returns files written.

        Periods are persisted in order and un-dirtied one by one, so an
        outage mid-way keeps the unpersisted remainder dirty for the next
        flush — nothing is silently marked clean.
        """
        written = 0
        for period in sorted(self._dirty):
            self._seq += 1
            key = f"{self._period_prefix(period)}idx-{self._seq:08d}.json.z"
            self._store.put(self.bucket, key, self._encode_period(period))
            self._dirty.discard(period)
            self.index_files_written += 1
            written += 1
        return written

    def compact_period_files(self, period: int) -> int:
        """Collapse a period's snapshot pile to a single authoritative
        file; returns obsolete files deleted."""
        prefix = self._period_prefix(period)
        existing = self._store.list_keys(self.bucket, prefix)
        if len(existing) <= 1 and period not in self._dirty:
            return 0
        self._seq += 1
        key = f"{prefix}idx-{self._seq:08d}.json.z"
        self._store.put(self.bucket, key, self._encode_period(period))
        self._dirty.discard(period)
        self.index_files_written += 1
        removed = 0
        for old in existing:
            if old != key and self._store.delete(self.bucket, old):
                removed += 1
                self.index_files_removed += 1
        return removed

    def compact_dirty(self) -> int:
        """:meth:`compact_period_files` for every dirty period: each is
        left with one snapshot.  Returns obsolete files deleted."""
        return sum(self.compact_period_files(period) for period in sorted(self._dirty))

    def index_file_count(self) -> int:
        return self._store.object_count(self.bucket, prefix=INDEX_PREFIX)

    def rebuild(self) -> int:
        """Reload the in-memory maps from the newest file of every period
        directory in the bucket — cold start from pure object storage.
        Returns the number of refs restored."""
        self._refs.clear()
        self._tables.clear()
        self._dirty.clear()
        by_period: dict[str, list[str]] = {}
        for key in self._store.list_keys(self.bucket, INDEX_PREFIX):
            period_dir = key.rsplit("/", 1)[0]
            by_period.setdefault(period_dir, []).append(key)
            # Resume the sequence past every file seen, so post-rebuild
            # snapshots still sort as newest.
            name = key.rsplit("/", 1)[1]
            if name.startswith("idx-"):
                try:
                    self._seq = max(self._seq, int(name[4:].split(".", 1)[0]))
                except ValueError:
                    pass
        for period_dir in sorted(by_period):
            newest = max(by_period[period_dir])
            obj = loads(
                zlib.decompress(self._store.get(self.bucket, newest)).decode()
            )
            for ref_obj in obj["refs"]:
                self._insert(ChunkRef.from_obj(ref_obj))
        return len(self._refs)
