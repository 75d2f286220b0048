"""Properties of the binary WAL codec (``repro.ring.wal``).

Interleaved pushes over several streams, arbitrary unicode lines, small
segments that roll, checkpoints in between: replay gives back exactly
what was appended since the last checkpoint, in order; a torn final
record costs exactly that record; a short record inside a sealed
segment is an error; and every sealed segment keeps its byte bound with
its series records counted.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StateError
from repro.common.labels import LabelSet
from repro.loki.model import LogEntry
from repro.ring.wal import WriteAheadLog, encode_bodies

NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,4}", fullmatch=True)
LABELS = st.dictionaries(NAMES, st.text(max_size=6), min_size=1, max_size=3)
#: Any text, and often the characters a text format would trip on.
LINES = st.one_of(
    st.text(max_size=24),
    st.sampled_from(["", "\x1e", "\n", "a\x1eb\nc", "é\x00ü", "\U0001f600"]),
)
ENTRIES = st.lists(
    st.tuples(st.integers(-(2**63), 2**63 - 1), LINES), min_size=1, max_size=4
)
#: ("push", stream, entries) or ("checkpoint",).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 3), ENTRIES),
        st.tuples(st.just("checkpoint")),
    ),
    min_size=1,
    max_size=30,
)


def records(data: bytes) -> list[tuple[int, int, int, int]]:
    """``(offset, size, kind, ref)`` of each record: the layout the
    module docstring gives, read independently of the module."""
    out, offset = [], 0
    while offset < len(data):
        size = 4 + int.from_bytes(data[offset : offset + 4], "big")
        kind, ref = data[offset + 4], int.from_bytes(data[offset + 5 : offset + 9], "big")
        out.append((offset, size, kind, ref))
        offset += size
    return out


def build(streams, ops, segment_max_bytes):
    """Apply ``ops``; the WAL and what it must replay."""
    wal = WriteAheadLog(segment_max_bytes=segment_max_bytes)
    labelsets = [LabelSet(labels) for labels in streams]
    expected = []
    for op in ops:
        if op[0] == "checkpoint":
            wal.checkpoint(b"snapshot")
            expected = []
            continue
        _, which, pairs = op
        labels = labelsets[which % len(labelsets)]
        entries = [LogEntry(ts, line) for ts, line in pairs]
        wal.append(labels, encode_bodies(entries))
        expected += [(labels, entry) for entry in entries]
    return wal, expected


CASES = dict(
    streams=st.lists(LABELS, min_size=1, max_size=4, unique_by=lambda d: tuple(sorted(d.items()))),
    ops=OPS,
    segment_max_bytes=st.integers(32, 200),
)


@settings(deadline=None, max_examples=150)
@given(**CASES)
def test_replay_is_what_was_appended_since_the_checkpoint(streams, ops, segment_max_bytes):
    wal, expected = build(streams, ops, segment_max_bytes)
    assert list(wal.replay()) == expected
    assert wal.torn_records_dropped == 0


@settings(deadline=None, max_examples=150)
@given(**CASES)
def test_segments_keep_their_bound_and_name_each_series_once(streams, ops, segment_max_bytes):
    wal, expected = build(streams, ops, segment_max_bytes)
    logged = 0
    for segment in wal.segments:
        found = records(bytes(segment.data))
        series = [ref for _, _, kind, ref in found if kind == 1]
        entries = [ref for _, _, kind, ref in found if kind == 2]
        assert len(series) + len(entries) == len(found)
        # One series record per stream in the segment, before its entries.
        assert sorted(series) == sorted(set(entries))
        first = {}
        for position, (_, _, kind, ref) in enumerate(found):
            first.setdefault(ref, (position, kind))
        assert all(kind == 1 for _, kind in first.values())
        if segment is not wal.segments[-1]:
            # Series records count: only a single entry may overflow.
            assert segment.size_bytes() <= segment_max_bytes or len(entries) == 1
        logged += len(entries)
    assert logged == len(expected)


@settings(deadline=None, max_examples=60)
@given(**CASES)
def test_a_torn_final_record_costs_that_record(streams, ops, segment_max_bytes):
    wal, expected = build(streams, ops, segment_max_bytes)
    tail = wal.segments[-1]
    whole = bytes(tail.data)
    if not whole:
        return  # nothing logged since the last checkpoint
    offset, size, kind, _ = records(whole)[-1]
    assert kind == 2 and offset + size == len(whole)
    for cut in range(1, size):
        tail.data = bytearray(whole[: len(whole) - cut])
        torn = wal.torn_records_dropped
        assert list(wal.replay()) == expected[:-1]
        assert wal.torn_records_dropped == torn + 1
    tail.data = bytearray(whole[:offset])  # cut at the record boundary
    assert list(wal.replay()) == expected[:-1]
    assert wal.torn_records_dropped == torn + 1


@settings(deadline=None, max_examples=60)
@given(**CASES, data=st.data())
def test_a_short_record_in_a_sealed_segment_raises(streams, ops, segment_max_bytes, data):
    wal, _ = build(streams, ops, segment_max_bytes)
    sealed = [s for s in wal.segments[:-1] if s.data]
    if not sealed:
        return
    segment = data.draw(st.sampled_from(sealed))
    _, size, _, _ = records(bytes(segment.data))[-1]
    segment.truncate_tail(data.draw(st.integers(1, size - 1)))
    with pytest.raises(StateError, match="truncated mid-record"):
        list(wal.replay())
