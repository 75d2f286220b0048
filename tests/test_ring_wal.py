"""WAL and ingester recovery: torn tails, idempotent replay, checkpoints.

The acceptance bar for the write path is deterministic recovery: restart
rebuilds the store from the checkpoint plus the logged segments through
the normal push path, so replay reproduces exactly the accepted set —
including re-rejecting what was rejected before the crash.
"""

import pytest

from repro.common.errors import StateError, ValidationError
from repro.common.labels import LabelSet, label_matcher
from repro.loki.model import LogEntry
from repro.ring.ingester import Ingester, IngesterState
from repro.ring.wal import WriteAheadLog, encode_bodies

APP = LabelSet({"app": "sim"})
MATCH = [label_matcher("app", "=", "sim")]


def entries(*pairs):
    return [LogEntry(ts, line) for ts, line in pairs]


def log(wal, labels, *pairs):
    wal.append(labels, encode_bodies(entries(*pairs)))


class TestWalFormat:
    def test_record_roundtrip(self):
        labels = LabelSet({"app": "sim", "host": "nid0001 é"})
        log(wal := WriteAheadLog(), labels, (42, "hello"), (-1, ""), (43, "a\x1eb\n"))
        assert list(wal.replay()) == [
            (labels, LogEntry(42, "hello")),
            (labels, LogEntry(-1, "")),
            (labels, LogEntry(43, "a\x1eb\n")),
        ]

    def test_decode_garbage_raises(self):
        wal = WriteAheadLog()
        log(wal, APP, (1, "x"))
        wal.segments[-1].data += b"\x00\x00\x00\x08not json"  # no such record kind
        with pytest.raises(StateError, match="undecodable"):
            list(wal.replay())

    @pytest.mark.parametrize(
        "garbage",
        [
            b"\x00\x00\x00\x05\x02\x00\x00\x00\x00",  # an entry record with no body
            b"\x00\x00\x00\x0d\x02\x00\x00\x00\x07" + bytes(8),  # a ref no series names
            b"\x00\x00\x00\x0a\x01\x00\x00\x00\x07\x01\x05\x05abc",  # labels cut short
            b"\x00\x00\x00\x06\x01\x00\x00\x00\x07\x81",  # a varint cut short
        ],
    )
    def test_decode_malformed_record_raises(self, garbage):
        wal = WriteAheadLog()
        log(wal, APP, (1, "x"))
        wal.segments[-1].data += garbage
        with pytest.raises(StateError, match="undecodable"):
            list(wal.replay())

    def test_a_timestamp_past_int64_is_refused(self):
        with pytest.raises(ValidationError, match="timestamp out of range"):
            encode_bodies(entries((2**63, "x")))

    def test_invalid_utf8_line_raises(self):
        wal = WriteAheadLog()
        log(wal, APP, (1, "x"))
        wal.segments[-1].data[-1] = 0xFF
        with pytest.raises(StateError, match="undecodable"):
            list(wal.replay())

    def test_segment_size_floor(self):
        with pytest.raises(ValidationError):
            WriteAheadLog(segment_max_bytes=8)

    def test_segments_roll_when_full(self):
        wal = WriteAheadLog(segment_max_bytes=128)
        log(wal, APP, *[(i, f"line-{i}") for i in range(20)])
        assert wal.segment_count() > 1
        assert wal.segments_sealed == wal.segment_count() - 1
        # Every sealed segment respects the byte bound.
        for segment in wal.segments[:-1]:
            assert segment.size_bytes() <= 128
        assert [e.line for _, e in wal.replay()] == [f"line-{i}" for i in range(20)]


class TestTornTail:
    def test_torn_tail_record_is_dropped(self):
        wal = WriteAheadLog()
        log(wal, APP, (1, "keep-a"), (2, "keep-b"), (3, "torn"))
        wal.segments[-1].truncate_tail(5)  # chop into the last record
        lines = [e.line for _, e in wal.replay()]
        assert lines == ["keep-a", "keep-b"]
        assert wal.torn_records_dropped == 1

    def test_torn_header_is_dropped_too(self):
        wal = WriteAheadLog()
        log(wal, APP, (1, "keep"))
        size_one = wal.segments[-1].size_bytes()
        log(wal, APP, (2, "torn"))
        # Leave only 2 bytes of the second record's 4-byte length prefix.
        tail = wal.segments[-1]
        tail.truncate_tail(tail.size_bytes() - size_one - 2)
        assert [e.line for _, e in wal.replay()] == ["keep"]
        assert wal.torn_records_dropped == 1

    def test_truncated_interior_segment_raises(self):
        wal = WriteAheadLog(segment_max_bytes=64)
        log(wal, APP, *[(i, f"line-{i}") for i in range(10)])
        assert wal.segment_count() > 1
        wal.segments[0].truncate_tail(3)  # corruption, not a torn write
        with pytest.raises(StateError, match="truncated mid-record"):
            list(wal.replay())

    def test_truncation_bounds_checked(self):
        wal = WriteAheadLog()
        log(wal, APP, (1, "x"))
        with pytest.raises(ValidationError):
            wal.segments[-1].truncate_tail(10_000)


class TestIngesterRecovery:
    def test_crash_loses_memory_restart_restores_it(self):
        ing = Ingester("ingester-0")
        ing.push_stream(APP, entries((1, "a"), (2, "b"), (3, "c")))
        before = ing.select(MATCH, 0, 10)
        ing.crash()
        assert ing.state is IngesterState.CRASHED
        with pytest.raises(StateError):
            ing.select(MATCH, 0, 10)
        replayed = ing.restart()
        assert replayed == 3
        assert ing.select(MATCH, 0, 10) == before

    def test_double_restart_is_idempotent(self):
        ing = Ingester("ingester-0")
        ing.push_stream(APP, entries((1, "a"), (2, "b")))
        ing.crash()
        ing.restart()
        once = ing.select(MATCH, 0, 10)
        once_stats = ing.store.stats
        ing.restart()  # rolling restart of a healthy replica
        assert ing.select(MATCH, 0, 10) == once
        assert ing.store.stats == once_stats

    def test_out_of_order_rejection_survives_restart(self):
        ing = Ingester("ingester-0")
        assert ing.push_stream(APP, entries((10, "ten"))) == 1
        # Rejected before the crash: older than the stream head.
        assert ing.push_stream(APP, entries((5, "five"))) == 0
        assert ing.push_stream(APP, entries((20, "twenty"))) == 1
        rejected_before = ing.store.stats.entries_rejected
        ing.crash()
        ing.restart()
        # Replay re-ran the same accept/reject decisions.
        [(_, got)] = ing.select(MATCH, 0, 100)
        assert [e.line for e in got] == ["ten", "twenty"]
        assert ing.store.stats.entries_rejected == rejected_before
        # And the replica still enforces ordering going forward.
        assert ing.push_stream(APP, entries((15, "fifteen"))) == 0

    def test_checkpoint_then_crash_restores_full_state(self):
        ing = Ingester("ingester-0")
        ing.wal.segment_max_bytes = 256
        ing.push_stream(APP, entries(*[(i, f"early-{i}") for i in range(10)]))
        dropped = ing.checkpoint()
        assert dropped >= 1
        assert ing.wal.checkpoint_blob is not None
        ing.push_stream(APP, entries(*[(i + 100, f"late-{i}") for i in range(5)]))
        before = ing.select(MATCH, 0, 1000)
        ing.crash()
        replayed = ing.restart()
        assert replayed == 5  # only post-checkpoint records replay
        assert ing.select(MATCH, 0, 1000) == before

    def test_stream_inventory_counts_restored_chunks(self):
        # The inventory reads chunk metadata; after a restart that
        # metadata was rebuilt from the checkpoint and the replayed WAL,
        # sealed and head chunks alike.
        from repro.loki.chunks import ChunkPolicy

        ing = Ingester("ingester-0", policy=ChunkPolicy(target_size_bytes=64))
        other = LabelSet({"app": "other"})
        ing.push_stream(APP, entries(*[(i, f"early-line-{i:02d}") for i in range(10)]))
        ing.checkpoint()
        ing.push_stream(APP, entries(*[(i + 100, f"late-line-{i:02d}") for i in range(5)]))
        ing.push_stream(other, entries((1, "only")))
        ing.store.flush_all()
        for labels, chunk in ing.store.sealed_chunks()[:2]:
            ing.store.drop_chunk(labels, chunk)  # shipped away; replay brings them back
        assert ing.stream_inventory()[APP] < 15
        ing.crash()
        ing.restart()
        assert ing.store.chunk_count() > 2
        assert ing.stream_inventory() == {
            APP: len(ing.entries_of(APP)[0]),
            other: len(ing.entries_of(other)[1]),
        } == {APP: 15, other: 1}
        assert ing.stream_inventory([other]) == {other: 1}

    def test_torn_last_write_loses_only_the_torn_entry(self):
        ing = Ingester("ingester-0")
        ing.push_stream(APP, entries((1, "acked-a"), (2, "acked-b")))
        ing.push_stream(APP, entries((3, "torn")))
        ing.wal.segments[-1].truncate_tail(4)
        ing.crash()
        ing.restart()
        [(_, got)] = ing.select(MATCH, 0, 10)
        assert [e.line for e in got] == ["acked-a", "acked-b"]
        assert ing.wal.torn_records_dropped == 1

    def test_crashed_ingester_refuses_writes(self):
        ing = Ingester("ingester-0")
        ing.crash()
        with pytest.raises(StateError):
            ing.push_stream(APP, entries((1, "x")))
        with pytest.raises(StateError):
            ing.checkpoint()
        with pytest.raises(StateError):
            ing.crash()  # already dead
