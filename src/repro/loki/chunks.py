"""Chunk storage: compressed buckets of one stream's log content.

Paper §IV.A: "Loki indexes the timestamp and labels only, and the log
contents are compressed and stored in chunks ... Each log stream fills a
separate chunk. So logs with the same combination of labels are stored in
the same chunk, and sorted in timestamp order. When a chunk is full, Loki
creates a new chunk. Chunks are first stored in memory, and then moved to
disk."

A chunk here accumulates entries in an in-memory *head block*; when the
head reaches the policy's target size (or the chunk's age exceeds the
policy's max age at flush time), it is *sealed*: the content is
zlib-compressed into immutable bytes.  A sealed chunk's entries never
change, so its owner reads them through a :class:`DecodeCache`: decoded
once while they stay cached, sliced by time on every read.  Every read
hands back a stream's entries beside their timestamps as one ``int64``
column (:func:`between`), which an open head keeps as it appends and a
sealed chunk decodes once: a count over a window reduces that column
without touching the entries.  Compression statistics feed the
storage-cost benches (C3/C4).
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.common.errors import StateError, ValidationError
from repro.loki.model import LogEntry

SEPARATOR = "\x1e"  # record separator; never appears in log lines we accept

#: Bound on each owner's :class:`DecodeCache`, in the uncompressed bytes
#: of the chunks it holds (each chunk's ``uncompressed_bytes``, added and
#: evicted alike).
DECODE_CACHE_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class ChunkPolicy:
    """Chunk sizing policy.

    ``target_size_bytes`` bounds the uncompressed head block; Loki prefers
    "bigger but fewer chunks" so the production default is large.
    ``max_age_ns`` bounds how long a chunk may keep accumulating before the
    store seals it regardless of size (Loki's ``max_chunk_age``).
    """

    target_size_bytes: int = 256 * 1024
    max_age_ns: int = 2 * 60 * 60 * 1_000_000_000  # 2h

    def __post_init__(self) -> None:
        if self.target_size_bytes < 1:
            raise ValidationError("target size must be positive")
        if self.max_age_ns < 1:
            raise ValidationError("max age must be positive")


class Chunk:
    """One stream's bucket of time-ordered entries."""

    __slots__ = (
        "policy",
        "first_ts_ns",
        "last_ts_ns",
        "_head",
        "_ts",
        "_head_bytes",
        "_content_bytes",
        "sealed",
        "_compressed",
        "entry_count",
    )

    def __init__(self, policy: ChunkPolicy) -> None:
        self.policy = policy
        self.first_ts_ns: int | None = None
        self.last_ts_ns: int | None = None
        self._head: list[LogEntry] = []
        #: The head's timestamps, one int64 each.
        self._ts = array("q")
        self._head_bytes = 0
        self._content_bytes = 0
        #: Compressed and immutable; only an open chunk has a head.
        self.sealed = False
        self._compressed: bytes | None = None
        self.entry_count = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def space_for(self, entry: LogEntry, size: int | None = None) -> bool:
        """Whether the head block can absorb ``entry`` without exceeding
        the target size (an empty chunk always accepts one entry).
        ``size`` is the entry's ``size_bytes()`` where the caller has
        already taken it."""
        if self.sealed:
            return False
        if not self._head:
            return True
        if size is None:
            size = entry.size_bytes()
        return self._head_bytes + size <= self.policy.target_size_bytes

    def append(self, entry: LogEntry, size: int | None = None) -> None:
        """Append one entry. Entries must arrive in timestamp order within
        the stream (the store enforces out-of-order rejection).  ``size``
        as for :meth:`space_for`."""
        if self.sealed:
            raise StateError("cannot append to a sealed chunk")
        if SEPARATOR in entry.line:
            raise ValidationError("log line contains reserved separator byte 0x1e")
        ts = entry.timestamp_ns
        if self.last_ts_ns is not None and ts < self.last_ts_ns:
            raise ValidationError(f"out-of-order entry: {ts} < {self.last_ts_ns}")
        if self.first_ts_ns is None:
            self.first_ts_ns = ts
        self.last_ts_ns = ts
        if size is None:
            size = entry.size_bytes()
        self._head.append(entry)
        self._ts.append(ts)
        self._head_bytes += size
        self._content_bytes += size
        self.entry_count += 1

    def seal(self) -> None:
        """Compress the head block; the chunk becomes immutable."""
        if self.sealed:
            return
        payload = SEPARATOR.join(
            f"{e.timestamp_ns}{SEPARATOR}{e.line}" for e in self._head
        )
        self._compressed = zlib.compress(payload.encode(), level=6)
        self._head = []
        self._ts = array("q")
        self._head_bytes = 0
        self.sealed = True

    # ------------------------------------------------------------------
    # Shipping (object-store flush)
    # ------------------------------------------------------------------
    def payload(self) -> bytes:
        """The sealed, compressed payload — what the shipper uploads.

        Deterministic for a given entry sequence (fixed separator format,
        fixed zlib level), which is what lets identical replica chunks
        dedup to one object by content hash.
        """
        if not self.sealed:
            raise StateError("only sealed chunks have a payload")
        return self._compressed or b""

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(self) -> list[LogEntry]:
        """All entries in timestamp order, as a fresh list: a sealed
        chunk's payload decoded whole."""
        return self.columns()[0]

    def columns(self) -> tuple[list[LogEntry], array]:
        """All entries in timestamp order and their timestamp column,
        both fresh: a sealed chunk's payload decoded whole."""
        if not self.sealed:
            return list(self._head), self._ts[:]
        return decode(self._compressed)

    def entries_between(
        self, start_ns: int, end_ns: int
    ) -> tuple[list[LogEntry], array]:
        """An open chunk's entries with ``start_ns <= ts < end_ns`` and
        their timestamps: :func:`between` of the head, in place (written
        out here, as one call fewer on a read that visits every chunk),
        and a head wholly inside the window copied without a bisect.  A
        sealed chunk is read whole, through its owner's
        :class:`DecodeCache`."""
        if self.sealed:
            raise StateError("a sealed chunk is read through a DecodeCache")
        ts = self._ts
        if self.entry_count and start_ns <= self.first_ts_ns and self.last_ts_ns < end_ns:
            return self._head[:], ts[:]
        lo = bisect_left(ts, start_ns)
        hi = bisect_left(ts, end_ns, lo)
        return self._head[lo:hi], ts[lo:hi]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def uncompressed_bytes(self) -> int:
        """Logical (pre-compression) content size: sum of line bytes."""
        return self._content_bytes

    def stored_bytes(self) -> int:
        """Actual resident size: compressed if sealed, raw if in memory."""
        if self.sealed:
            return len(self._compressed or b"")
        return self._head_bytes

    def age_ns(self, now_ns: int) -> int:
        if self.first_ts_ns is None:
            return 0
        return max(0, now_ns - self.first_ts_ns)


def decode(payload: bytes) -> tuple[list[LogEntry], array]:
    """A sealed chunk's payload as fresh ``(entries, ts)`` — how a cold
    read turns the bytes it fetched back into entries."""
    text = zlib.decompress(payload).decode()
    if not text:  # a chunk sealed with nothing in it
        return [], array("q")
    fields = text.split(SEPARATOR)
    stamps = list(map(int, fields[::2]))
    return list(map(LogEntry, stamps, fields[1::2])), array("q", stamps)


def between(
    entries: list[LogEntry], ts: array, start_ns: int, end_ns: int
) -> tuple[list[LogEntry], array]:
    """The fresh slices of time-ordered ``entries`` and of their
    timestamp column ``ts`` with ``start_ns <= ts < end_ns``: a bisect of
    the column, in C."""
    lo = bisect_left(ts, start_ns)
    hi = bisect_left(ts, end_ns, lo)
    return entries[lo:hi], ts[lo:hi]


class DecodeCache:
    """Sealed chunks' decoded entries and timestamp columns, least
    recently used first.

    A sealed chunk never changes, so its owner decodes it once
    (:meth:`Chunk.columns`) while it stays here and slices the cached
    pair (:func:`between`) on every read.  The hot store keys it by the
    resident :class:`Chunk` and discards a chunk when it leaves the
    store; the store-gateway keys it by content-addressed object key.
    Bounded by :data:`DECODE_CACHE_BYTES` of the chunks' uncompressed
    bytes; a chunk larger than the whole bound is decoded and not kept.
    """

    __slots__ = ("_entries", "bytes", "hits", "misses")

    def __init__(self) -> None:
        # Key -> (decoded columns, the bytes they count against the bound).
        self._entries: OrderedDict[
            Hashable, tuple[tuple[list[LogEntry], array], int]
        ] = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> tuple[list[LogEntry], array] | None:
        """The ``(entries, ts)`` cached under ``key`` — the cache's own
        pair, to slice and never to change — or None, a miss to
        :meth:`put`."""
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return cached[0]

    def peek(self, key: Hashable) -> tuple[list[LogEntry], array] | None:
        """As :meth:`get`, for a reader that is not a query: counting
        neither hit nor miss, and leaving the eviction order alone."""
        cached = self._entries.get(key)
        return None if cached is None else cached[0]

    def put(
        self, key: Hashable, columns: tuple[list[LogEntry], array], size: int
    ) -> tuple[list[LogEntry], array]:
        """Keep ``key``'s decoded ``columns``, of ``size`` uncompressed
        bytes, evicting the least recently used to fit; returns them."""
        if size <= DECODE_CACHE_BYTES:
            while self.bytes + size > DECODE_CACHE_BYTES:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.bytes -= evicted
            self._entries[key] = (columns, size)
            self.bytes += size
        return columns

    def discard(self, key: Hashable) -> None:
        """Forget ``key``, cached or not."""
        cached = self._entries.pop(key, None)
        if cached is not None:
            self.bytes -= cached[1]


def pack_chunks(entries: list[LogEntry], policy: ChunkPolicy) -> list[Chunk]:
    """Time-ordered ``entries`` cut into sealed chunks of at most the
    policy's target size — how the compactor rewrites a merged stream and
    the lifecycle archives an expired one."""
    chunks: list[Chunk] = []
    current: Chunk | None = None
    for entry in entries:
        size = entry.size_bytes()
        if current is None or not current.space_for(entry, size):
            if current is not None:
                current.seal()
            current = Chunk(policy)
            chunks.append(current)
        current.append(entry, size)
    if current is not None:
        current.seal()
    return chunks
