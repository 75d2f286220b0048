"""Tests for the Kafka-like broker."""

import pytest
from hypothesis import given, strategies as st

from repro.bus.broker import Broker, TopicConfig
from repro.common.errors import (
    CapacityError,
    NotFoundError,
    StateError,
    ValidationError,
)
from repro.common.simclock import SimClock, hours, seconds


@pytest.fixture
def clock():
    return SimClock(0)


@pytest.fixture
def broker(clock):
    b = Broker(clock)
    b.create_topic("events", TopicConfig(partitions=4))
    return b


class TestTopics:
    def test_create_and_list(self, broker):
        broker.create_topic("more")
        assert broker.topics() == ["events", "more"]

    def test_duplicate_create_rejected(self, broker):
        with pytest.raises(StateError):
            broker.create_topic("events")

    def test_ensure_topic_idempotent(self, broker):
        broker.ensure_topic("events")
        broker.ensure_topic("fresh")
        assert "fresh" in broker.topics()

    def test_empty_name_rejected(self, broker):
        with pytest.raises(ValidationError):
            broker.create_topic("")

    def test_unknown_topic_raises(self, broker):
        with pytest.raises(NotFoundError):
            broker.produce("nope", "x")

    def test_bad_partition_count(self):
        with pytest.raises(ValidationError):
            TopicConfig(partitions=0)


class TestProduceConsume:
    def test_roundtrip(self, broker):
        broker.produce("events", "hello", key="k")
        records = broker.poll("g", "events")
        assert [r.value for r in records] == ["hello"]

    def test_offsets_monotonic_per_partition(self, broker):
        for i in range(20):
            broker.produce("events", f"v{i}", key="same-key")
        records = broker.poll("g", "events", 100)
        # Same key -> same partition -> contiguous offsets.
        assert [r.offset for r in records] == list(range(20))
        assert len({r.partition for r in records}) == 1

    def test_poll_advances_and_commits(self, broker):
        broker.produce("events", "a")
        assert len(broker.poll("g", "events")) == 1
        assert broker.poll("g", "events") == []

    def test_independent_groups(self, broker):
        broker.produce("events", "a")
        assert len(broker.poll("g1", "events")) == 1
        assert len(broker.poll("g2", "events")) == 1

    def test_max_records_respected(self, broker):
        for i in range(10):
            broker.produce("events", str(i), key="k")
        assert len(broker.poll("g", "events", max_records=3)) == 3
        assert len(broker.poll("g", "events", max_records=100)) == 7

    def test_max_records_must_be_positive(self, broker):
        with pytest.raises(ValidationError):
            broker.poll("g", "events", 0)

    def test_poll_sorted_by_timestamp(self, broker, clock):
        broker.produce("events", "first")
        clock.advance(seconds(1))
        broker.produce("events", "second")
        records = broker.poll("g", "events", 10)
        assert [r.value for r in records] == ["first", "second"]

    def test_lag(self, broker):
        for i in range(5):
            broker.produce("events", str(i))
        assert broker.lag("g", "events") == 5
        broker.poll("g", "events", 3)
        assert broker.lag("g", "events") == 2

    def test_seek_to_beginning(self, broker):
        broker.produce("events", "a")
        (record,) = broker.poll("g", "events")
        broker.seek("g", "events", record.partition, 0)
        assert len(broker.poll("g", "events")) == 1

    def test_produce_batch(self, broker):
        assert broker.produce_batch("events", ["a", "b", "c"]) == 3
        assert broker.topic_stats("events")["total_produced"] == 3

    def test_key_placement_is_pinned(self, clock):
        """(partition of 4, partition of 7) per key, as ``mix64(fnv1a_64)``
        placed them before a key's hash was memoised: placement, and with
        it per-key order and the backlog's shape, must not move."""
        pinned = {
            "x1000c0s0b0n0": (1, 6), "x1000c0s0b0n1": (3, 4), "x1000c0s0b1n0": (3, 0),
            "x1000c0s1b0n0": (1, 6), "x1000c1s0b0n0": (3, 3), "x1001c0s0b0n0": (2, 5),
            "x1102c4s0b0": (1, 4), "x1c0s0b0n0": (3, 5), "x3000c0r15b0": (0, 5),
            "telemetry-api": (0, 3), "vmagent": (2, 3), "loki-distributor": (2, 4),
            "": (3, 5), "nöde-é": (0, 3),
        }
        b = Broker(clock)
        b.create_topic("t4", TopicConfig(partitions=4))
        b.create_topic("t7", TopicConfig(partitions=7))
        for _ in range(2):  # first sight, then from the memo
            assert {
                key: (b.produce("t4", "v", key=key).partition,
                      b.produce("t7", "v", key=key).partition)
                for key in pinned
            } == pinned

    @given(st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=50))
    def test_no_loss_no_duplication(self, values):
        clock = SimClock(0)
        b = Broker(clock)
        b.create_topic("t", TopicConfig(partitions=3))
        for i, v in enumerate(values):
            b.produce("t", v, key=v)
        got = []
        while True:
            batch = b.poll("g", "t", 7)
            if not batch:
                break
            got.extend(r.value for r in batch)
        assert sorted(got) == sorted(values)


class TestAtLeastOnce:
    """Manual-commit semantics: poll/commit, redelivery, seek."""

    def test_manual_poll_does_not_commit(self, broker):
        broker.produce("events", "a")
        records = broker.poll("g", "events", auto_commit=False)
        assert len(records) == 1
        # Committed offsets unchanged: the record still counts as lag.
        assert broker.lag("g", "events") == 1
        assert broker.commit("g", "events") == 1
        assert broker.lag("g", "events") == 0

    def test_crash_redelivers_uncommitted(self, broker):
        for i in range(5):
            broker.produce("events", f"v{i}", key="k")
        broker.poll("g", "events", 3, auto_commit=False)
        broker.commit("g", "events")
        broker.poll("g", "events", 2, auto_commit=False)
        # Crash before commit: rewinding redelivers the last two.
        assert broker.reset_to_committed("g", "events") == 2
        redelivered = broker.poll("g", "events", 10, auto_commit=False)
        assert [r.value for r in redelivered] == ["v3", "v4"]

    def test_auto_commit_survives_reset(self, broker):
        broker.produce("events", "a")
        broker.poll("g", "events")  # legacy auto-commit
        assert broker.reset_to_committed("g", "events") == 0
        assert broker.poll("g", "events") == []

    def test_committed_reports_per_partition(self, broker):
        broker.produce("events", "a", key="k")
        records = broker.poll("g", "events", auto_commit=False)
        partition = records[0].partition
        assert broker.committed("g", "events")[partition] == 0
        broker.commit("g", "events")
        assert broker.committed("g", "events")[partition] == 1

    def test_seek_rewinds_one_partition(self, broker):
        for i in range(3):
            broker.produce("events", f"v{i}", key="k")
        records = broker.poll("g", "events", 10, auto_commit=False)
        partition = records[0].partition
        broker.seek("g", "events", partition, 1)
        again = broker.poll("g", "events", 10, auto_commit=False)
        assert [r.value for r in again] == ["v1", "v2"]

    def test_seek_validates_partition(self, broker):
        with pytest.raises(ValidationError):
            broker.seek("g", "events", 99, 0)

    def test_seek_clamps_to_log_start(self, clock):
        b = Broker(clock)
        b.create_topic("t", TopicConfig(partitions=1, retention_ns=hours(1)))
        b.produce("t", "old")
        clock.advance(hours(2))
        b.produce("t", "new")
        b.enforce_retention()
        b.seek("g", "t", 0, 0)  # before the log start
        assert [r.value for r in b.poll("g", "t", 10)] == ["new"]


class TestBackpressure:
    def test_full_partition_rejects_produce(self, clock):
        b = Broker(clock)
        b.create_topic(
            "t", TopicConfig(partitions=1, max_records_per_partition=2)
        )
        b.produce("t", "a")
        b.produce("t", "b")
        with pytest.raises(CapacityError):
            b.produce("t", "c")
        assert b.topic_stats("t")["backpressure_rejections"] == 1

    def test_consumption_alone_does_not_free_space(self, clock):
        # Capacity is record residency, freed by retention, not reads.
        b = Broker(clock)
        b.create_topic(
            "t",
            TopicConfig(
                partitions=1, max_records_per_partition=2, retention_ns=hours(1)
            ),
        )
        b.produce("t", "a")
        b.produce("t", "b")
        b.poll("g", "t", 10)
        with pytest.raises(CapacityError):
            b.produce("t", "c")
        clock.advance(hours(2))
        b.enforce_retention()
        b.produce("t", "c")  # space reclaimed

    def test_bound_validation(self):
        with pytest.raises(ValidationError):
            TopicConfig(max_records_per_partition=0)


class TestDeadLetterQueue:
    def test_quarantine_after_max_failures(self, broker):
        record = broker.produce("events", "poison", key="k")
        assert broker.fail_delivery("g", record, "bad json") is False
        assert broker.fail_delivery("g", record, "bad json") is False
        assert broker.fail_delivery("g", record, "bad json") is True
        assert broker.dlq_depth("events") == 1
        assert broker.records_dead_lettered == 1

    def test_dlq_record_provenance_headers(self, broker):
        record = broker.produce("events", "poison", key="k")
        broker.fail_delivery("g", record, "bad json", max_failures=1)
        [dead] = broker.poll("reader", broker.dlq_topic("events"), 10)
        assert dead.value == "poison"
        assert dead.header("dlq-source-topic") == "events"
        assert dead.header("dlq-source-partition") == str(record.partition)
        assert dead.header("dlq-source-offset") == str(record.offset)
        assert dead.header("dlq-failures") == "1"
        assert dead.header("dlq-error") == "bad json"
        assert dead.header("dlq-group") == "g"

    def test_failure_counts_are_per_group(self, broker):
        record = broker.produce("events", "poison")
        assert broker.fail_delivery("g1", record, "err") is False
        assert broker.fail_delivery("g2", record, "err") is False
        assert broker.fail_delivery("g1", record, "err") is False
        assert broker.fail_delivery("g1", record, "err") is True

    def test_dlq_depth_zero_without_failures(self, broker):
        assert broker.dlq_depth("events") == 0

    def test_max_failures_validated(self, broker):
        record = broker.produce("events", "x")
        with pytest.raises(ValidationError):
            broker.fail_delivery("g", record, "err", max_failures=0)


class TestRetention:
    def test_expiry_advances_start_offset(self, clock):
        b = Broker(clock)
        b.create_topic("t", TopicConfig(partitions=1, retention_ns=hours(1)))
        b.produce("t", "old")
        clock.advance(hours(2))
        b.produce("t", "new")
        expired = b.enforce_retention()
        assert expired == 1
        records = b.poll("g", "t", 10)
        assert [r.value for r in records] == ["new"]
        assert records[0].offset == 1  # offsets never reused

    def test_no_retention_keeps_all(self, clock):
        b = Broker(clock)
        b.create_topic("t", TopicConfig(partitions=1, retention_ns=None))
        b.produce("t", "old")
        clock.advance(hours(1000))
        assert b.enforce_retention() == 0

    def test_consumer_skips_expired(self, clock):
        b = Broker(clock)
        b.create_topic("t", TopicConfig(partitions=1, retention_ns=hours(1)))
        for i in range(5):
            b.produce("t", f"old{i}")
        clock.advance(hours(2))
        b.enforce_retention()
        b.produce("t", "fresh")
        assert [r.value for r in b.poll("g", "t", 10)] == ["fresh"]


class TestStats:
    def test_topic_stats(self, broker):
        broker.produce("events", "abc", key="k")
        stats = broker.topic_stats("events")
        assert stats["total_produced"] == 1
        assert stats["total_bytes"] == 4  # 3 value bytes + 1 key byte
        assert stats["partitions"] == 4

    def test_group_ids_listed(self, broker):
        broker.produce("events", "x")
        broker.poll("g1", "events")
        assert ("g1", "events") in broker.group_ids()

    def test_consume_counter_counts_deliveries(self, broker):
        for i in range(6):
            broker.produce("events", f"m{i}")
        broker.poll("g1", "events", max_records=4)
        assert broker.topic_stats("events")["total_consumed"] == 4
        broker.poll("g1", "events", max_records=10)
        assert broker.topic_stats("events")["total_consumed"] == 6

    def test_consume_counter_includes_redelivery(self, clock):
        # Without auto-commit, an uncommitted poll is re-delivered after
        # a seek — the counter tracks deliveries, not unique records.
        b = Broker(clock)
        b.create_topic("t", TopicConfig(partitions=1))
        b.produce("t", "only")
        b.poll("g", "t", auto_commit=False)
        b.reset_to_committed("g", "t")
        b.poll("g", "t", auto_commit=False)
        assert b.topic_stats("t")["total_consumed"] == 2

    def test_each_group_counts_toward_consumed(self, broker):
        broker.produce("events", "x")
        broker.poll("g1", "events")
        broker.poll("g2", "events")
        assert broker.topic_stats("events")["total_consumed"] == 2

    def test_reject_counter_on_backpressure(self, clock):
        b = Broker(clock)
        b.create_topic(
            "tiny", TopicConfig(partitions=1, max_records_per_partition=2)
        )
        b.produce("tiny", "a")
        b.produce("tiny", "b")
        with pytest.raises(CapacityError):
            b.produce("tiny", "c")
        stats = b.topic_stats("tiny")
        assert stats["total_produced"] == 2
        assert stats["backpressure_rejections"] == 1

    def test_counters_are_per_topic(self, broker):
        broker.create_topic("other")
        broker.produce("events", "x")
        broker.produce("other", "y")
        broker.poll("g", "other")
        assert broker.topic_stats("events")["total_consumed"] == 0
        assert broker.topic_stats("other")["total_consumed"] == 1
