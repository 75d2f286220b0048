"""The per-ingester write-ahead log: segmented, checkpointed, replayable.

Same contract as Loki's ingester WAL: every entry is logged *before* it
is applied to the in-memory store, so an acknowledged write survives a
crash of the process.  The log is a sequence of **segments** (bounded
byte arrays standing in for the on-disk segment files); a **checkpoint**
durably captures the store's compacted state and lets all earlier
segments be dropped, bounding replay time.

Records are binary and length-prefixed, in the layout of the
Prometheus and Loki WALs:

* ``len:u32 | kind=1:u8 | ref:u32 | labels`` — a **series record**,
  naming the stream behind ``ref``.  Each segment holds it once, before
  that stream's first entry in the segment, so a segment replays on its
  own.  ``labels`` is the label count and the UTF-8 length of each
  name and value in order, as LEB128 varints, then those texts.
* ``len:u32 | kind=2:u8 | ref:u32 | body`` — an **entry record**, where
  the body (see :func:`encode_bodies`) is ``timestamp:i64 | line`` in
  UTF-8.  The distributor encodes a push's bodies once and every
  replica's log frames the same bytes with its own ref.

``len`` counts the bytes after itself, so a torn final write (the crash
happened mid-``write()``) shows up as a partial record at the very tail.
Replay tolerates exactly that: a short record at the end of the *last*
segment is dropped and counted; a short record anywhere else means real
corruption and raises, as does a record that does not decode.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.common.errors import StateError, ValidationError
from repro.common.labels import LabelSet
from repro.loki.model import LogEntry

_LEN = struct.Struct(">I")
#: A record's head: the length of what follows it, its kind, its ref.
_HEAD = struct.Struct(">IBI")
#: An entry record past its length: kind, ref, then the body's timestamp.
_ENTRY_HEAD = struct.Struct(">BIq")
_TS = struct.Struct(">q")
_SERIES = 1
_ENTRY = 2


def encode_bodies(entries: Iterable[LogEntry]) -> list[bytes]:
    """Each entry's record body: its timestamp, then its UTF-8 line."""
    pack = _TS.pack
    try:
        return [pack(e.timestamp_ns) + e.line.encode() for e in entries]
    except struct.error as exc:
        raise ValidationError(f"timestamp out of range: {exc}") from None


def _varints(values: Iterable[int]) -> bytes:
    out = bytearray()
    for value in values:
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


@functools.lru_cache(maxsize=4096)
def _labels_payload(labels: LabelSet) -> bytes:
    """A series record's labels, encoded once per stream for every
    replica's log (and again only once the stream fell out of use)."""
    texts = [text.encode() for pair in labels.items_tuple() for text in pair]
    return _varints([len(labels), *map(len, texts)]) + b"".join(texts)


def _series_record(ref: int, labels: LabelSet) -> bytes:
    payload = _labels_payload(labels)
    return _HEAD.pack(_HEAD.size - _LEN.size + len(payload), _SERIES, ref) + payload


def _decode_labels(record: memoryview) -> LabelSet:
    offset = 0

    def varint() -> int:
        nonlocal offset
        value = shift = 0
        while True:
            byte = record[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value
            shift += 7

    count = varint()
    lengths = [varint() for _ in range(2 * count)]
    texts = []
    for size in lengths:
        texts.append(str(record[offset : offset + size], "utf-8"))
        offset += size
    if offset != len(record):
        raise ValueError("label lengths disagree with the record's")
    return LabelSet(zip(texts[::2], texts[1::2]))


def _decode(
    record: memoryview, series: dict[int, LabelSet]
) -> tuple[LabelSet, LogEntry] | None:
    """An entry record's ``(stream, entry)``; a series record is added
    to ``series`` instead."""
    kind = record[0]
    if kind == _ENTRY:
        _, ref, ts = _ENTRY_HEAD.unpack_from(record)
        return series[ref], LogEntry(ts, str(record[_ENTRY_HEAD.size :], "utf-8"))
    if kind != _SERIES:
        raise ValueError(f"unknown record kind {kind}")
    (ref,) = _LEN.unpack_from(record, 1)
    series[ref] = _decode_labels(record[_HEAD.size - _LEN.size :])
    return None


@dataclass
class WalSegment:
    """One bounded append-only byte region (a segment file)."""

    index: int
    data: bytearray = field(default_factory=bytearray)
    #: Refs whose series record this segment already holds.
    series: set[int] = field(default_factory=set)

    def size_bytes(self) -> int:
        return len(self.data)

    def truncate_tail(self, nbytes: int) -> None:
        """Simulate a torn write: chop ``nbytes`` off the segment end."""
        if nbytes < 0 or nbytes > len(self.data):
            raise ValidationError("truncation out of range")
        del self.data[len(self.data) - nbytes :]


class WriteAheadLog:
    """Segmented append log with a single durable checkpoint slot."""

    def __init__(self, segment_max_bytes: int = 64 * 1024) -> None:
        if segment_max_bytes < 32:
            raise ValidationError("segment size too small to hold a record")
        self.segment_max_bytes = segment_max_bytes
        self.segments: list[WalSegment] = [WalSegment(index=0)]
        #: Opaque snapshot written by the owner at the last checkpoint;
        #: replay = restore this, then apply the remaining segments.
        self.checkpoint_blob: bytes | None = None
        self._next_index = 1
        #: Stream -> (ref, its encoded series record), for every stream
        #: logged since the last checkpoint.
        self._series: dict[LabelSet, tuple[int, bytes]] = {}
        # Accounting for the ring exporter / benches.
        self.records_appended = 0
        self.bytes_appended = 0
        self.segments_sealed = 0
        self.checkpoints = 0
        self.torn_records_dropped = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _roll(self) -> WalSegment:
        self.segments_sealed += 1
        self.segments.append(WalSegment(index=self._next_index))
        self._next_index += 1
        return self.segments[-1]

    def append(self, labels: LabelSet, bodies: Sequence[bytes]) -> None:
        """Log one stream's entry bodies (:func:`encode_bodies`), rolling
        segments as they fill.  A segment the stream has not been logged
        in yet first gets its series record; the two roll together, so
        a sealed segment exceeds ``segment_max_bytes`` only when it holds
        a single entry that alone does."""
        series = self._series.get(labels)
        if series is None:
            ref = len(self._series)
            series = self._series[labels] = (ref, _series_record(ref, labels))
        ref, series_record = series
        active = self.segments[-1]
        written = 0
        for body in bodies:
            size = _HEAD.size + len(body)
            logged = ref in active.series
            if not logged:
                size += len(series_record)
            if active.data and len(active.data) + size > self.segment_max_bytes:
                active = self._roll()
                if logged:
                    size += len(series_record)
                    logged = False
            data = active.data
            if not logged:
                data += series_record
                active.series.add(ref)
            data += _HEAD.pack(_HEAD.size - _LEN.size + len(body), _ENTRY, ref)
            data += body
            written += size
        self.records_appended += len(bodies)
        self.bytes_appended += written

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, blob: bytes) -> int:
        """Durably record ``blob`` and drop every logged segment.

        Returns the number of segments dropped.  The owner must ensure
        ``blob`` captures all state the dropped segments described.
        """
        dropped = len(self.segments)
        self.checkpoint_blob = blob
        self.segments = [WalSegment(index=self._next_index)]
        self._next_index += 1
        # No segment names a ref any more: the next log of each stream
        # starts with its series record again, under a fresh ref.
        self._series.clear()
        self.checkpoints += 1
        return dropped

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> Iterator[tuple[LabelSet, LogEntry]]:
        """Yield every logged ``(stream, entry)`` in append order.

        A partial record at the tail of the *final* segment is dropped
        (torn last write); a partial record anywhere else, or one that
        does not decode, raises :class:`~repro.common.errors.StateError`.
        """
        tail = self.segments[-1]
        for segment in self.segments:
            # A copy, so the live segment stays appendable while a
            # consumer holds this generator.
            view = memoryview(bytes(segment.data))
            series: dict[int, LabelSet] = {}
            offset, end = 0, len(view)
            while offset < end:
                start = offset + _LEN.size
                stop = start + _LEN.unpack_from(view, offset)[0] if start <= end else start
                if stop > end:
                    if segment is tail:
                        self.torn_records_dropped += 1
                        break
                    raise StateError(
                        f"WAL segment {segment.index} truncated mid-record"
                    )
                try:
                    entry = _decode(view[start:stop], series)
                except Exception as exc:  # noqa: BLE001 - any decode failure is corruption
                    raise StateError(
                        f"undecodable WAL record in segment {segment.index}: {exc!r}"
                    ) from exc
                if entry is not None:
                    yield entry
                offset = stop

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def segment_count(self) -> int:
        return len(self.segments)

    def size_bytes(self) -> int:
        checkpoint = len(self.checkpoint_blob or b"")
        return checkpoint + sum(s.size_bytes() for s in self.segments)
