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
zlib-compressed into immutable bytes.  Reads transparently decompress.
Compression statistics feed the storage-cost benches (C3/C4).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from repro.common.errors import StateError, ValidationError
from repro.loki.model import LogEntry

SEPARATOR = "\x1e"  # record separator; never appears in log lines we accept
_TIMESTAMP = attrgetter("timestamp_ns")


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
        "_head_bytes",
        "_content_bytes",
        "_sealed",
        "_compressed",
        "entry_count",
    )

    def __init__(self, policy: ChunkPolicy) -> None:
        self.policy = policy
        self.first_ts_ns: int | None = None
        self.last_ts_ns: int | None = None
        self._head: list[LogEntry] = []
        self._head_bytes = 0
        self._content_bytes = 0
        self._sealed = False
        self._compressed: bytes | None = None
        self.entry_count = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @property
    def sealed(self) -> bool:
        return self._sealed

    def space_for(self, entry: LogEntry, size: int | None = None) -> bool:
        """Whether the head block can absorb ``entry`` without exceeding
        the target size (an empty chunk always accepts one entry).
        ``size`` is the entry's ``size_bytes()`` where the caller has
        already taken it."""
        if self._sealed:
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
        if self._sealed:
            raise StateError("cannot append to a sealed chunk")
        if SEPARATOR in entry.line:
            raise ValidationError("log line contains reserved separator byte 0x1e")
        if self.last_ts_ns is not None and entry.timestamp_ns < self.last_ts_ns:
            raise ValidationError(
                f"out-of-order entry: {entry.timestamp_ns} < {self.last_ts_ns}"
            )
        if self.first_ts_ns is None:
            self.first_ts_ns = entry.timestamp_ns
        self.last_ts_ns = entry.timestamp_ns
        if size is None:
            size = entry.size_bytes()
        self._head.append(entry)
        self._head_bytes += size
        self._content_bytes += size
        self.entry_count += 1

    def seal(self) -> None:
        """Compress the head block; the chunk becomes immutable."""
        if self._sealed:
            return
        payload = SEPARATOR.join(
            f"{e.timestamp_ns}{SEPARATOR}{e.line}" for e in self._head
        )
        self._compressed = zlib.compress(payload.encode(), level=6)
        self._head = []
        self._head_bytes = 0
        self._sealed = True

    # ------------------------------------------------------------------
    # Shipping (object-store flush / restore)
    # ------------------------------------------------------------------
    def payload(self) -> bytes:
        """The sealed, compressed payload — what the shipper uploads.

        Deterministic for a given entry sequence (fixed separator format,
        fixed zlib level), which is what lets identical replica chunks
        dedup to one object by content hash.
        """
        if not self._sealed:
            raise StateError("only sealed chunks have a payload")
        return self._compressed or b""

    @classmethod
    def restore(
        cls,
        policy: ChunkPolicy,
        payload: bytes,
        first_ts_ns: int | None,
        last_ts_ns: int | None,
        entry_count: int,
        content_bytes: int,
    ) -> "Chunk":
        """Rebuild a sealed chunk from a shipped payload plus the metadata
        its index ref carried — the store-gateway's read path."""
        chunk = cls(policy)
        chunk.first_ts_ns = first_ts_ns
        chunk.last_ts_ns = last_ts_ns
        chunk.entry_count = entry_count
        chunk._content_bytes = content_bytes
        chunk._compressed = payload
        chunk._sealed = True
        return chunk

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _fields(self) -> list[str]:
        """A sealed chunk's payload split into ``ts, line, ts, line, ...``."""
        if self._compressed is None or self.entry_count == 0:
            return []
        fields = zlib.decompress(self._compressed).decode().split(SEPARATOR)
        if len(fields) % 2:
            fields.pop()  # a timestamp without its line: not an entry
        return fields

    def entries(self) -> list[LogEntry]:
        """All entries in timestamp order (decompressing if sealed)."""
        if not self._sealed:
            return list(self._head)
        fields = self._fields()
        return list(map(LogEntry, map(int, fields[::2]), fields[1::2]))

    def entries_between(self, start_ns: int, end_ns: int) -> list[LogEntry]:
        """Entries with ``start_ns <= ts < end_ns``, as a fresh list.

        Entries are time-ordered, so the range is a bisect: into the
        open head directly, and for a sealed chunk into its parsed
        timestamps, so that only the in-range slice is rebuilt.
        """
        if self.first_ts_ns is None:
            return []
        if self.last_ts_ns < start_ns or self.first_ts_ns >= end_ns:
            return []
        if not self._sealed:
            head = self._head
            lo = bisect_left(head, start_ns, key=_TIMESTAMP)
            return head[lo : bisect_left(head, end_ns, lo, key=_TIMESTAMP)]
        fields = self._fields()
        ts = list(map(int, fields[::2]))
        lo = bisect_left(ts, start_ns)
        hi = bisect_left(ts, end_ns, lo)
        return list(map(LogEntry, ts[lo:hi], fields[2 * lo + 1 : 2 * hi : 2]))

    def overlaps(self, start_ns: int, end_ns: int) -> bool:
        if self.first_ts_ns is None:
            return False
        return self.last_ts_ns >= start_ns and self.first_ts_ns < end_ns

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def uncompressed_bytes(self) -> int:
        """Logical (pre-compression) content size: sum of line bytes."""
        return self._content_bytes

    def stored_bytes(self) -> int:
        """Actual resident size: compressed if sealed, raw if in memory."""
        if self._sealed:
            return len(self._compressed or b"")
        return self._head_bytes

    def age_ns(self, now_ns: int) -> int:
        if self.first_ts_ns is None:
            return 0
        return max(0, now_ns - self.first_ts_ns)


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
