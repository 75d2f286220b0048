"""The Loki store: ingestion, chunk lifecycle, selection.

``LokiStore`` is a single ingester.  Several of them behind one
distributor — the 8-worker deployment the paper evaluates on, bench C8 —
is :class:`repro.ring.cluster.RingLokiCluster`.
"""

from __future__ import annotations

import dataclasses
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet, Matcher
from repro.loki.chunks import SEPARATOR, Chunk, ChunkPolicy, DecodeCache, between
from repro.loki.index import LabelIndex
from repro.loki.model import LogEntry, PushRequest


@dataclass
class StoreStats:
    """Ingest/storage accounting for the benches.

    Every field must be a summable counter: :func:`aggregate_stats` folds
    stores field-by-field via :func:`dataclasses.fields`.
    """

    entries_ingested: int = 0
    bytes_ingested: int = 0
    entries_rejected: int = 0
    chunks_created: int = 0
    chunks_sealed: int = 0
    chunks_flushed: int = 0


def aggregate_stats(stores: Iterable["LokiStore"]) -> StoreStats:
    """Field-wise sum of many stores' stats — the cluster-wide totals
    benches and exporters read off a sharded or replicated deployment.

    Iterates the dataclass fields rather than hand-listing them, so a
    counter added to :class:`StoreStats` can never be silently dropped
    from cluster totals (``tests/test_aggregate_stats.py`` pins this).
    """
    total = StoreStats()
    names = [f.name for f in dataclasses.fields(StoreStats)]
    for store in stores:
        for name in names:
            setattr(total, name, getattr(total, name) + getattr(store.stats, name))
    return total


class EntrySelect:
    """``select``: a log store's ``select_columns`` without the timestamp
    columns.  Every backend inherits it, so the one read each serves is
    ``select_columns``; the engine reads that, and ``select`` is for
    callers that want the entries alone."""

    def select(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        shard: tuple[int, int] | None = None,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry]]]:
        return [
            (labels, entries)
            for labels, entries, _ts in self.select_columns(
                matchers, start_ns, end_ns, shard, line_contains
            )
        ]


#: A stream with nothing resident spans no time: it starts after every
#: window and ends before every one.
_NO_FIRST = 2**63 - 1
_NO_LAST = -(2**63)


class _Stream:
    """One stream's resident state — what a push needs once its labels
    are resolved."""

    __slots__ = ("sid", "labels", "chunks", "last_ts")

    def __init__(self, sid: int, labels: LabelSet) -> None:
        self.sid = sid
        self.labels = labels
        #: Oldest first; only the last may be open.
        self.chunks: list[Chunk] = []
        #: Ordering watermark.  Outlives the chunks: flushing them away
        #: is a storage move, not forgetting the stream.
        self.last_ts: int | None = None


class LokiStore(EntrySelect):
    """A single-ingester Loki.

    Per stream the store keeps an ordered list of chunks; only the last may
    be open.  Out-of-order entries (older than the stream's newest
    timestamp) are rejected, as Loki 2.4 does by default.

    A push reaches its stream by *ref* (DESIGN §3, the log write path):
    the labels exactly as passed are the key, so a steady-state line
    builds no ``LabelSet`` and touches neither index nor postings.

    Its ``push`` / ``push_stream`` / ``select_columns`` / maintenance
    surface is the one log-store contract
    :class:`~repro.ring.cluster.RingLokiCluster` and
    :class:`~repro.objstore.tiered.TieredLokiStore` keep too (DESIGN
    §3); an argument only another backend uses — a line hint — is
    accepted here and ignored.
    """

    def __init__(self, policy: ChunkPolicy | None = None) -> None:
        self.policy = policy or ChunkPolicy()
        self.index = LabelIndex()
        #: By stream id, in creation order.
        self._streams: dict[int, _Stream] = {}
        # Labels as given -> the stream: a LabelSet, or a mapping's
        # (name, value) items in the order it iterates.  Several refs
        # may name one stream (a dict and a LabelSet, two key orders);
        # one is only ever added after `_register` validated it, so the
        # table is bounded by streams x key orders, never by lines.
        self._refs: dict[LabelSet | tuple, _Stream] = {}
        # Streams whose resident entries may have changed since the last
        # drain_touched(): every mutation below that adds or frees
        # entries marks its stream.  Bounded by the streams the index
        # holds, whether or not anyone drains it.
        self._touched: set[LabelSet] = set()
        # Resident sealed chunks' entries, decoded once while cached; a
        # chunk is discarded when it leaves the store.
        self._decoded = DecodeCache()
        # By stream id: the first and last timestamps of its resident
        # chunks, their count and their uncompressed bytes, as compact
        # columns — how bytes_overlapping sizes a window without visiting
        # a stream it either misses or reads every chunk of.  Kept by
        # every change to a stream's chunks (_measure).
        self._first = array("q")
        self._last = array("q")
        self._chunks = array("q")
        self._bytes = array("q")
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(self, request: PushRequest) -> int:
        """Ingest a push request; returns accepted entry count."""
        accepted = 0
        for stream in request.streams:
            accepted += self.push_stream(stream.labels, stream.entries)
        return accepted

    def _stream(self, labels: LabelSet | Mapping[str, str]) -> _Stream:
        """The stream ``labels`` name, registered if this is its first
        sight — by ref, so only first sight validates."""
        ref = labels if type(labels) is LabelSet else tuple(labels.items())
        try:
            stream = self._refs.get(ref)
        except TypeError:  # an unhashable label value: let _register say so
            stream = None
        if stream is None:
            stream = self._refs[ref] = self._register(labels)
        return stream

    def _register(self, labels: LabelSet | Mapping[str, str]) -> _Stream:
        """The validating path, taken once per stream ref: build the
        label set, and the stream's index entry and postings if new."""
        labelset = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        if not labelset:
            raise ValidationError("a log stream needs at least one label")
        sid = self.index.get_or_create(labelset)
        stream = self._streams.get(sid)
        if stream is None:  # then the index entry is new too, and holds `labelset`
            stream = self._streams[sid] = _Stream(sid, labelset)
            self._first.append(_NO_FIRST)
            self._last.append(_NO_LAST)
            self._chunks.append(0)
            self._bytes.append(0)
        return stream

    def push_stream(
        self,
        labels: LabelSet | Mapping[str, str],
        entries: Iterable[LogEntry],
    ) -> int:
        stream = self._stream(labels)
        self._touched.add(stream.labels)
        stats = self.stats
        chunks = stream.chunks
        chunk = chunks[-1] if chunks else None
        last = stream.last_ts
        accepted = accepted_bytes = 0
        # Watermark and counters are written once per push — in a
        # `finally`, because a refused line (the reserved separator)
        # leaves the entries accepted before it in place.
        try:
            for entry in entries:
                if last is not None and entry.timestamp_ns < last:
                    stats.entries_rejected += 1
                    continue
                size = entry.size_bytes()
                if chunk is None or not chunk.space_for(entry, size):
                    # A line the chunk would refuse cuts no chunk for it.
                    if SEPARATOR in entry.line:
                        raise ValidationError(
                            "log line contains reserved separator byte 0x1e"
                        )
                    if chunk is not None:
                        chunk.seal()
                        stats.chunks_sealed += 1
                    chunk = Chunk(self.policy)
                    chunks.append(chunk)
                    stats.chunks_created += 1
                    self._chunks[stream.sid] = len(chunks)
                    if len(chunks) == 1:
                        self._first[stream.sid] = entry.timestamp_ns
                chunk.append(entry, size)
                last = entry.timestamp_ns
                accepted += 1
                accepted_bytes += size
        finally:
            stream.last_ts = last
            stats.entries_ingested += accepted
            stats.bytes_ingested += accepted_bytes
            if accepted:
                self._last[stream.sid] = last
                self._bytes[stream.sid] += accepted_bytes
        return accepted

    def _measure(self, stream: _Stream) -> None:
        """Re-read ``stream``'s span and bytes off its resident chunks,
        after chunks left it."""
        chunks, sid = stream.chunks, stream.sid
        self._first[sid] = chunks[0].first_ts_ns if chunks else _NO_FIRST
        self._last[sid] = chunks[-1].last_ts_ns if chunks else _NO_LAST
        self._chunks[sid] = len(chunks)
        self._bytes[sid] = sum(chunk.uncompressed_bytes() for chunk in chunks)

    def replace_stream(
        self, labels: LabelSet | Mapping[str, str], entries: Iterable[LogEntry]
    ) -> int:
        """Rebuild one stream from scratch with the given history.

        The anti-entropy repair path (repro.selfheal) needs this: a
        replica that took over a stream mid-outage holds only a *suffix*,
        and the missing older entries can never arrive through
        :meth:`push_stream` — the out-of-order watermark rejects them.
        Replacing drops the stream's resident chunks and ordering
        watermark, then re-ingests the merged history in timestamp
        order through the normal push path.  Returns entries stored.

        This is a physical rewrite: ingest counters advance for the
        re-written entries exactly as they would for fresh pushes.
        """
        stream = self._stream(labels)
        for chunk in stream.chunks:
            self._decoded.discard(chunk)
        stream.chunks = []
        stream.last_ts = None
        self._measure(stream)
        return self.push_stream(stream.labels, entries)

    def flush_aged(self, now_ns: int) -> int:
        """Seal open chunks older than the policy's max age; returns count."""
        sealed = 0
        for stream in self._streams.values():
            chunks = stream.chunks
            if chunks and not chunks[-1].sealed:
                chunk = chunks[-1]
                if chunk.age_ns(now_ns) >= self.policy.max_age_ns:
                    chunk.seal()
                    self.stats.chunks_sealed += 1
                    sealed += 1
        return sealed

    def flush_all(self) -> int:
        """Seal every open chunk (shutdown / test determinism)."""
        sealed = 0
        for stream in self._streams.values():
            chunks = stream.chunks
            if chunks and not chunks[-1].sealed:
                chunks[-1].seal()
                self.stats.chunks_sealed += 1
                sealed += 1
        return sealed

    # ------------------------------------------------------------------
    # Selection (LogQL's data plane)
    # ------------------------------------------------------------------
    def select_columns(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        shard: tuple[int, int] | None = None,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """Entries per matching stream with ``start <= ts < end``, and
        their timestamps as one ``int64`` column.

        Only chunks overlapping the window are read — the chunk
        time-bounds act as a coarse secondary index — an open one by a
        bisect into its head's column, a sealed one by slicing its
        entries and column, decoded once while they stay in the store's
        decode cache (DESIGN §3, "One read per range aggregation").
        ``shard=(i, n)`` keeps only the streams whose fingerprint lands
        in shard ``i`` of ``n``, before any chunk is read.
        ``line_contains`` is a pruning hint for stores with blooms; a hot
        store has none to consult.

        The read contract every store's ``select_columns`` keeps: streams
        with no entry in the window are absent; a stream's entries are in
        timestamp order, same-timestamp entries in arrival order, and its
        column holds their timestamps in the same order; each list and
        column is fresh (the caller's to keep or reorder) while the
        ``LogEntry`` objects in it are the store's own and immutable.
        """
        if end_ns <= start_ns:
            raise ValidationError("empty time range")
        decoded = self._decoded
        streams = self._streams
        out = []
        for sid in self.index.select(matchers, shard):
            stream = streams[sid]
            entries = ts = None
            for chunk in stream.chunks:
                if chunk.first_ts_ns >= end_ns or chunk.last_ts_ns < start_ns:
                    continue
                if chunk.sealed:
                    whole = decoded.get(chunk)
                    if whole is None:
                        whole = decoded.put(
                            chunk, chunk.columns(), chunk.uncompressed_bytes()
                        )
                    part, part_ts = between(*whole, start_ns, end_ns)
                else:
                    part, part_ts = chunk.entries_between(start_ns, end_ns)
                if entries is None:  # fresh slices: the first is the stream's own
                    entries, ts = part, part_ts
                else:
                    entries += part
                    ts += part_ts
            if entries:
                out.append((stream.labels, entries, ts))
        return out

    def bytes_overlapping(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int, limit: int
    ) -> int:
        """Uncompressed bytes of the chunks a ``select_columns`` of
        ``[start, end)`` would read, off postings and chunk bounds —
        nothing decodes.  A stream is sized off the span columns: one
        the window misses counts nothing, and one it holds whole, or
        that has a single resident chunk, counts all its bytes; only a
        stream of several chunks the window cuts is walked.  Counting
        stops at the first stream that brings the sum to ``limit``: a
        caller asking which side of ``limit`` a window is on learns it
        either way.

        The sizing read every store keeps beside ``select_columns``
        (DESIGN §12, "Sizing a plan")."""
        first, last, count, size = self._first, self._last, self._chunks, self._bytes
        total = 0
        for sid in self.index.select(matchers):
            if (lo := first[sid]) >= end_ns or (hi := last[sid]) < start_ns:
                continue
            if count[sid] == 1 or (lo >= start_ns and hi < end_ns):
                total += size[sid]
            else:
                for chunk in self._streams[sid].chunks:
                    if chunk.first_ts_ns < end_ns and chunk.last_ts_ns >= start_ns:
                        total += chunk.uncompressed_bytes()
            if total >= limit:
                break
        return total

    def delete_before(self, cutoff_ns: int) -> int:
        """Retention: drop sealed chunks entirely before ``cutoff_ns``.

        Returns the number of chunks dropped.  Open or straddling chunks
        are kept (Loki deletes at chunk granularity).
        """
        dropped = 0
        for stream in self._streams.values():
            keep = []
            for chunk in stream.chunks:
                if chunk.sealed and chunk.last_ts_ns < cutoff_ns:
                    self._decoded.discard(chunk)
                    dropped += 1
                else:
                    keep.append(chunk)
            if len(keep) != len(stream.chunks):
                self._touched.add(stream.labels)
                stream.chunks = keep
                self._measure(stream)
        return dropped

    def expired_entries(
        self, cutoff_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """Entries :meth:`delete_before` would drop at ``cutoff_ns`` and
        their timestamps, per stream as ``select_columns`` answers them —
        what a retention sweep archives first."""
        out = []
        for stream in self._streams.values():
            doomed: list[LogEntry] = []
            ts = array("q")
            for chunk in stream.chunks:
                if chunk.sealed and chunk.last_ts_ns < cutoff_ns:
                    entries, chunk_ts = chunk.columns()
                    doomed += entries
                    ts += chunk_ts
            if doomed:
                out.append((stream.labels, doomed, ts))
        return out

    # ------------------------------------------------------------------
    # Flush-to-cold support (the chunk shipper's surface)
    # ------------------------------------------------------------------
    def active_stores(self) -> list[LokiStore]:
        """The live stores behind this backend: itself."""
        return [self]

    def sealed_chunks(self) -> list[tuple[LabelSet, Chunk]]:
        """Every resident sealed chunk with its stream's labels — the
        shipper's work list.  Open chunks stay out: they are still
        accepting writes and have no immutable payload yet."""
        out: list[tuple[LabelSet, Chunk]] = []
        for stream in self._streams.values():
            out.extend(
                (stream.labels, chunk) for chunk in stream.chunks if chunk.sealed
            )
        return out

    def drop_chunk(self, labels: LabelSet | Mapping[str, str], chunk: Chunk) -> bool:
        """Release one flushed chunk from resident memory (by identity).

        The stream itself — its index entry and its ordering
        watermark — survives, so out-of-order rejection after a flush is
        exactly as it was before: flushing is a storage move, not a
        logical deletion.  Returns whether the chunk was resident.
        """
        labelset = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        sid = self.index.lookup(labelset)
        if sid is None:
            return False
        stream = self._streams[sid]
        for i, resident in enumerate(stream.chunks):
            if resident is chunk:
                del stream.chunks[i]
                self._measure(stream)
                self._decoded.discard(chunk)
                self._touched.add(labelset)
                self.stats.chunks_flushed += 1
                return True
        return False

    def stream_labels(self, matchers: Iterable[Matcher] = ()) -> list[LabelSet]:
        """Label sets of every known stream (flushed-away ones included)
        that satisfies ``matchers``, in creation order."""
        return [self._streams[sid].labels for sid in self.index.select(matchers)]

    def stream_chunks(self, labels: LabelSet) -> list[Chunk]:
        """One stream's resident chunks, oldest first — the store's own
        list, or an empty one for a stream it does not know."""
        sid = self.index.lookup(labels)
        return self._streams[sid].chunks if sid is not None else []

    # ------------------------------------------------------------------
    # Anti-entropy support (the ring repairer's surface)
    # ------------------------------------------------------------------
    def resident_entry_counts(
        self, streams: Iterable[LabelSet] | None = None
    ) -> dict[LabelSet, int]:
        """Resident entries per stream, read off chunk metadata — no
        chunk is decoded.  Every known stream (flushed-away ones count
        0), or only those of ``streams`` this store knows."""
        if streams is None:
            streams = self.stream_labels()
        counts: dict[LabelSet, int] = {}
        for labels in streams:
            sid = self.index.lookup(labels)
            if sid is not None:
                counts[labels] = sum(
                    chunk.entry_count for chunk in self._streams[sid].chunks
                )
        return counts

    def drain_touched(self) -> set[LabelSet]:
        """Streams whose resident entry count may have changed since the
        previous call (pushed, replaced, retention-deleted, freed by the
        shipper); the call forgets them.  One consumer per store: the
        ring repairer, which re-diffs exactly these streams."""
        touched, self._touched = self._touched, set()
        return touched

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def chunk_count(self) -> int:
        return sum(len(stream.chunks) for stream in self._streams.values())

    def stream_count(self) -> int:
        return len(self.index)

    def stored_bytes(self) -> int:
        """Resident chunk bytes (compressed where sealed)."""
        return sum(
            c.stored_bytes() for stream in self._streams.values() for c in stream.chunks
        )

    def uncompressed_bytes(self) -> int:
        return sum(
            c.uncompressed_bytes()
            for stream in self._streams.values()
            for c in stream.chunks
        )

    def index_bytes(self) -> int:
        return self.index.size_bytes()

    def oldest_entry_ns(self) -> int | None:
        """Timestamp of the oldest resident entry, or ``None`` if empty."""
        oldest: int | None = None
        for stream in self._streams.values():
            for chunk in stream.chunks:
                if oldest is None or chunk.first_ts_ns < oldest:
                    oldest = chunk.first_ts_ns
        return oldest

    def compression_ratio(self) -> float:
        stored = self.stored_bytes()
        return self.uncompressed_bytes() / stored if stored else 0.0
