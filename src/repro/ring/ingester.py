"""One write-path replica: a LokiStore guarded by a write-ahead log.

The store is process memory and dies with a crash; the WAL (and its
checkpoint slot) is durable.  Every push is logged *first* and applied
second, so :meth:`Ingester.restart` can rebuild the exact pre-crash
store: restore the last checkpoint snapshot, then re-apply the logged
records through the normal push path.  Because the push path's
out-of-order rejection is deterministic, replay reproduces precisely the
accepted set — including rejecting again anything that was rejected
before the crash.
"""

from __future__ import annotations

import enum
import zlib
from array import array
from typing import Iterable, Mapping, Sequence

from repro.common.errors import StateError
from repro.common.jsonutil import dumps_compact, loads
from repro.common.labels import LabelSet, Matcher
from repro.loki.chunks import ChunkPolicy
from repro.loki.model import LogEntry
from repro.loki.store import EntrySelect, LokiStore
from repro.ring.merge import merge_replica_columns
from repro.ring.wal import WriteAheadLog, encode_bodies


class IngesterState(enum.Enum):
    ACTIVE = "active"
    CRASHED = "crashed"


class Ingester(EntrySelect):
    """A crash-restartable ingester with WAL-backed durability."""

    def __init__(
        self,
        ingester_id: str,
        policy: ChunkPolicy | None = None,
    ) -> None:
        self.id = ingester_id
        self._policy = policy
        self.wal = WriteAheadLog()
        self.store = LokiStore(policy)
        self.state = IngesterState.ACTIVE
        self.crashes = 0
        self.restarts = 0
        self.records_replayed_total = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _require_active(self) -> None:
        if self.state is not IngesterState.ACTIVE:
            raise StateError(f"ingester {self.id} is {self.state.value}")

    def push_stream(
        self,
        labels: LabelSet | Mapping[str, str],
        entries: Iterable[LogEntry],
        bodies: Sequence[bytes] | None = None,
    ) -> int:
        """WAL-then-apply; returns entries the store accepted.  ``bodies``
        are the entries' WAL bodies, when the caller already encoded them
        (the distributor does, once for all replicas)."""
        self._require_active()
        labelset = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        if bodies is None:
            entries = list(entries)
            bodies = encode_bodies(entries)
        self.wal.append(labelset, bodies)
        return self.store.push_stream(labelset, entries)

    # ------------------------------------------------------------------
    # Anti-entropy repair surface (repro.selfheal)
    # ------------------------------------------------------------------
    def stream_inventory(
        self, streams: Iterable[LabelSet] | None = None
    ) -> dict[LabelSet, int]:
        """Resident entry count per stream (all of them, or only those
        of ``streams`` held here) — what the repairer diffs the ring's
        desired placement against."""
        self._require_active()
        return self.store.resident_entry_counts(streams)

    def entries_of(
        self, labels: LabelSet | Mapping[str, str]
    ) -> tuple[list[LogEntry], array]:
        """Every resident entry of one stream, in store order, and their
        timestamps: fresh, as ``select_columns`` answers them."""
        self._require_active()
        labelset = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        entries: list[LogEntry] = []
        ts = array("q")
        for chunk in self.store.stream_chunks(labelset):
            chunk_entries, chunk_ts = chunk.columns()
            entries += chunk_entries
            ts += chunk_ts
        return entries, ts

    def repair_stream(
        self,
        labels: LabelSet | Mapping[str, str],
        donor: tuple[list[LogEntry], array],
    ) -> int:
        """Graft a donor's ``(entries, ts)`` history into this stream.

        A repair target may hold a *suffix* of the stream (it joined the
        replica set after the stream started), so the donor's older
        entries cannot go through :meth:`push_stream` — the store's
        out-of-order watermark would reject them.  Instead the local and
        donor copies are merged (max-multiplicity, same as quorum reads)
        and the stream is rebuilt from scratch.

        The rebuild bypasses the WAL; the repairer checkpoints every
        touched target afterwards, which re-anchors durability at the
        repaired state.  A crash between rebuild and checkpoint loses
        only the grafted copy — the donors still hold it, and the next
        anti-entropy sweep re-detects the gap.  Returns the number of
        entries in the rebuilt stream.
        """
        self._require_active()
        labelset = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        merged, _ts = merge_replica_columns([self.entries_of(labelset), donor])
        return self.store.replace_stream(labelset, merged)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose the process: in-memory store gone, WAL survives."""
        self._require_active()
        self.state = IngesterState.CRASHED
        self.crashes += 1
        self.store = LokiStore(self._policy)  # empty husk until restart

    def restart(self) -> int:
        """Recover: restore the checkpoint, replay the WAL; returns the
        number of records replayed.  Safe to call on an ACTIVE ingester
        too (a rolling restart) — recovery always rebuilds from scratch,
        which is what makes double-replay idempotent."""
        store = LokiStore(self._policy)
        if self.wal.checkpoint_blob is not None:
            self._restore_checkpoint(store, self.wal.checkpoint_blob)
        replayed = 0
        for labels, entry in self.wal.replay():
            store.push_stream(labels, (entry,))
            replayed += 1
        self.store = store
        self.state = IngesterState.ACTIVE
        self.restarts += 1
        self.records_replayed_total += replayed
        return replayed

    def checkpoint(self) -> int:
        """Snapshot the store into the WAL's durable checkpoint slot and
        drop the logged segments; returns segments dropped."""
        self._require_active()
        streams = []
        for labels in self.store.stream_labels():
            entries = []
            for chunk in self.store.stream_chunks(labels):
                entries.extend([e.timestamp_ns, e.line] for e in chunk.entries())
            streams.append({"l": labels.to_dict(), "e": entries})
        blob = zlib.compress(dumps_compact({"streams": streams}).encode(), level=6)
        return self.wal.checkpoint(blob)

    @staticmethod
    def _restore_checkpoint(store: LokiStore, blob: bytes) -> None:
        obj = loads(zlib.decompress(blob).decode())
        for stream in obj["streams"]:
            labels = LabelSet(stream["l"])
            entries = [LogEntry(int(ts), line) for ts, line in stream["e"]]
            if entries:
                store.push_stream(labels, entries)

    # ------------------------------------------------------------------
    # Read path (a crashed replica refuses)
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.state is IngesterState.ACTIVE

    def select_columns(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        shard: tuple[int, int] | None = None,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        self._require_active()
        return self.store.select_columns(matchers, start_ns, end_ns, shard=shard)

    def bytes_overlapping(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int, limit: int
    ) -> int:
        self._require_active()
        return self.store.bytes_overlapping(matchers, start_ns, end_ns, limit)
