"""Tests for chunk storage: compression, sealing, windows."""

import hashlib
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import StateError, ValidationError
from repro.loki.chunks import Chunk, ChunkPolicy, between, decode
from repro.loki.model import LogEntry


def make_chunk(target=1024, max_age=10**12):
    return Chunk(ChunkPolicy(target_size_bytes=target, max_age_ns=max_age))


def read(chunk, start, end):
    """A window of ``chunk`` as its owner reads one: an open head by a
    bisect of its column in place, a sealed chunk decoded whole and
    sliced, a decoded payload's ``(entries, ts)`` sliced.  The column
    read beside the entries is their timestamps."""
    if isinstance(chunk, tuple):
        entries, ts = between(*chunk, start, end)
    elif chunk.sealed:
        entries, ts = between(*chunk.columns(), start, end)
    else:
        entries, ts = chunk.entries_between(start, end)
    assert list(ts) == [e.timestamp_ns for e in entries]
    return entries


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ChunkPolicy(target_size_bytes=0)
        with pytest.raises(ValidationError):
            ChunkPolicy(max_age_ns=0)


class TestAppend:
    def test_append_and_read(self):
        chunk = make_chunk()
        chunk.append(LogEntry(1, "a"))
        chunk.append(LogEntry(2, "b"))
        assert [e.line for e in chunk.entries()] == ["a", "b"]
        assert chunk.first_ts_ns == 1 and chunk.last_ts_ns == 2

    def test_out_of_order_rejected(self):
        chunk = make_chunk()
        chunk.append(LogEntry(5, "a"))
        with pytest.raises(ValidationError):
            chunk.append(LogEntry(4, "b"))

    def test_equal_timestamps_allowed(self):
        chunk = make_chunk()
        chunk.append(LogEntry(5, "a"))
        chunk.append(LogEntry(5, "b"))
        assert chunk.entry_count == 2

    def test_separator_byte_rejected(self):
        with pytest.raises(ValidationError):
            make_chunk().append(LogEntry(0, "bad\x1eline"))

    def test_space_for_respects_target(self):
        chunk = make_chunk(target=10)
        chunk.append(LogEntry(0, "12345"))
        assert chunk.space_for(LogEntry(1, "12345"))
        chunk.append(LogEntry(1, "12345"))
        assert not chunk.space_for(LogEntry(2, "x"))

    def test_empty_chunk_accepts_oversized_entry(self):
        chunk = make_chunk(target=2)
        assert chunk.space_for(LogEntry(0, "very long line"))


class TestSeal:
    def test_seal_preserves_entries(self):
        chunk = make_chunk()
        entries = [LogEntry(i, f"line {i} with some text") for i in range(50)]
        for e in entries:
            chunk.append(e)
        chunk.seal()
        assert chunk.sealed
        assert chunk.entries() == entries

    def test_seal_is_idempotent(self):
        chunk = make_chunk()
        chunk.append(LogEntry(0, "x"))
        chunk.seal()
        chunk.seal()
        assert chunk.entry_count == 1

    def test_append_after_seal_rejected(self):
        chunk = make_chunk()
        chunk.append(LogEntry(0, "x"))
        chunk.seal()
        with pytest.raises(StateError):
            chunk.append(LogEntry(1, "y"))

    def test_compression_shrinks_repetitive_content(self):
        chunk = make_chunk(target=10**6)
        for i in range(200):
            chunk.append(LogEntry(i, "the same syslog-ish line " * 4))
        raw = chunk.uncompressed_bytes()
        chunk.seal()
        assert chunk.stored_bytes() < raw / 5
        assert chunk.uncompressed_bytes() == raw  # logical size preserved

    def test_empty_chunk_seals(self):
        chunk = make_chunk()
        chunk.seal()
        assert chunk.entries() == []

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_characters="\x1e", blacklist_categories=("Cs",)
                ),
                max_size=40,
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_roundtrip_property(self, lines):
        chunk = make_chunk(target=10**9)
        entries = [LogEntry(i, line) for i, line in enumerate(lines)]
        for e in entries:
            chunk.append(e)
        head = chunk.columns()
        chunk.seal()
        assert chunk.entries() == entries
        assert chunk.columns() == head
        assert list(head[1]) == [e.timestamp_ns for e in entries]


class TestWindows:
    def test_entries_between(self):
        chunk = make_chunk()
        for i in range(10):
            chunk.append(LogEntry(i * 10, str(i)))
        got, ts = chunk.entries_between(20, 50)
        assert [e.timestamp_ns for e in got] == list(ts) == [20, 30, 40]

    def test_window_after_seal(self):
        chunk = make_chunk()
        for i in range(10):
            chunk.append(LogEntry(i, str(i)))
        chunk.seal()
        assert len(read(chunk, 3, 7)) == 4
        with pytest.raises(StateError):  # a sealed chunk is read whole
            chunk.entries_between(3, 7)

    def test_age(self):
        chunk = make_chunk()
        chunk.append(LogEntry(100, "x"))
        assert chunk.age_ns(150) == 50
        assert make_chunk().age_ns(12345) == 0


def _filter_everything(entries, start, end):
    return [e for e in entries if start <= e.timestamp_ns < end]


class TestWindowBoundaries:
    """A window bisects, into an open head or a sealed chunk's decoded
    entries; the reference filters every entry."""

    SHAPES = {
        "spread": [10, 20, 20, 20, 35, 50, 50, 90],
        "gap": [10, 11, 80, 81],
        "all_equal": [40, 40, 40, 40],
        "single": [40],
    }

    @staticmethod
    def chunks(timestamps):
        entries = [LogEntry(ts, f"line {i}") for i, ts in enumerate(timestamps)]
        head = make_chunk(target=10**9)
        for e in entries:
            head.append(e)
        sealed = make_chunk(target=10**9)
        for e in entries:
            sealed.append(e)
        sealed.seal()
        restored = decode(sealed.payload())
        return entries, {"open head": head, "sealed": sealed, "restored": restored}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_boundary_equals_filter_everything(self, shape):
        entries, chunks = self.chunks(self.SHAPES[shape])
        first, last = entries[0].timestamp_ns, entries[-1].timestamp_ns
        edges = sorted({first - 1, first, first + 1, last - 1, last, last + 1, last + 2}
                       | {ts + d for ts in self.SHAPES[shape] for d in (0, 1)})
        for kind, chunk in chunks.items():
            for start in edges:
                for end in edges:
                    if end > start:
                        assert read(chunk, start, end) == _filter_everything(
                            entries, start, end
                        ), (kind, start, end)

    def test_named_boundaries(self):
        entries, chunks = self.chunks(self.SHAPES["gap"])
        for chunk in chunks.values():
            # start == first_ts, end == last_ts + 1: everything.
            assert read(chunk, 10, 82) == entries
            # end == last_ts: the last entry is out (end-exclusive).
            assert read(chunk, 10, 81) == entries[:3]
            # A window inside the empty gap between two entries.
            assert read(chunk, 12, 80) == []
            assert read(chunk, 12, 81) == entries[2:3]

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=25),
        st.integers(-2, 62),
        st.integers(1, 30),
    )
    def test_window_property(self, timestamps, start, width):
        entries, chunks = self.chunks(sorted(timestamps))
        for kind, chunk in chunks.items():
            assert read(chunk, start, start + width) == _filter_everything(
                entries, start, start + width
            ), kind

    def test_window_is_a_fresh_list(self):
        _entries, chunks = self.chunks(self.SHAPES["spread"])
        head = chunks["open head"]
        window, ts = head.entries_between(0, 100)
        window.clear()
        del ts[:]
        assert [len(column) for column in head.entries_between(0, 100)] == [8, 8]


class TestPayloadGolden:
    """Content-addressed dedup (S1) keys on these bytes: the payload of a
    fixed entry sequence must not move.  Hashes taken at commit c18870e,
    before reads stopped decoding whole chunks."""

    TEXT_SHA256 = "1ceb5dc8c7282752462fa8ef0d4f926edc09c3a52f416196e95a97f784d29dd8"
    PAYLOAD_SHA256 = "575ec406be9f7bfea35412d0bcea62b83bd3a787b95d0e6082375bb61e477b3f"

    def test_payload_bytes_unchanged(self):
        chunk = Chunk(ChunkPolicy())
        for i in range(200):
            severity = "Warning" if i % 5 else "Critical"
            chunk.append(
                LogEntry(
                    1646272077000000000 + (i // 3) * 1_000_000,
                    f"x1102c4s{i % 8}b0 kernel: event {i} severity={severity} ünïcode",
                )
            )
        chunk.append(LogEntry(1646272077000000000 + 10**9, ""))
        chunk.seal()
        payload = chunk.payload()
        # The record format first, so a failure says which of the two moved.
        assert hashlib.sha256(zlib.decompress(payload)).hexdigest() == self.TEXT_SHA256
        assert hashlib.sha256(payload).hexdigest() == self.PAYLOAD_SHA256
        assert len(payload) == 1253
