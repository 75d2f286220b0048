"""The broker: topics, partitions, consumer groups, retention.

Modeled after the subset of Apache Kafka the paper's pipeline uses.  The
HMS collector produces Redfish events into topics; rsyslog aggregators
produce syslog; the Telemetry API consumes on behalf of clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, NamedTuple

from repro.common.errors import (
    CapacityError,
    NotFoundError,
    StateError,
    ValidationError,
)
from repro.common.hashing import fnv1a_64, mix64
from repro.common.simclock import SimClock

#: Suffix appended to a topic's name to form its dead-letter topic.
DLQ_SUFFIX = ".dlq"


_DELIVERY_ORDER = attrgetter("timestamp_ns", "partition", "offset")


class Record(NamedTuple):
    """A single message in a topic partition (immutable; one is built
    per produce, so it is a tuple, not a frozen dataclass)."""

    topic: str
    partition: int
    offset: int
    timestamp_ns: int
    key: str | None
    value: str
    #: Kafka-style headers: out-of-band metadata (e.g. trace context)
    #: that rides the record without touching the payload bytes.
    headers: tuple[tuple[str, str], ...] = ()

    def size_bytes(self) -> int:
        """Approximate wire size (key + value, UTF-8).  ASCII is known
        from the string's header; only other text is encoded to be
        measured."""
        value, key = self.value, self.key
        size = len(value) if value.isascii() else len(value.encode())
        if key:
            size += len(key) if key.isascii() else len(key.encode())
        return size

    def header(self, name: str) -> str | None:
        for key, value in self.headers:
            if key == name:
                return value
        return None


@dataclass
class TopicConfig:
    """Creation-time configuration for a topic."""

    partitions: int = 4
    retention_ns: int | None = None  # None = keep forever
    #: Bound on records resident per partition.  ``None`` = unbounded
    #: (the legacy telemetry topics).  A full partition refuses produce
    #: with :class:`CapacityError` — the backpressure signal.
    max_records_per_partition: int | None = None

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ValidationError("topic needs at least one partition")
        if self.retention_ns is not None and self.retention_ns <= 0:
            raise ValidationError("retention must be positive or None")
        if (
            self.max_records_per_partition is not None
            and self.max_records_per_partition < 1
        ):
            raise ValidationError("partition bound must be positive or None")


class _Partition:
    """One partition: an append-only list plus a log-start offset.

    Records before ``start_offset`` have been deleted by retention; the
    list only holds ``records[start_offset:]``.
    """

    __slots__ = ("records", "start_offset")

    def __init__(self) -> None:
        self.records: list[Record] = []
        self.start_offset = 0

    @property
    def end_offset(self) -> int:
        """Offset that the *next* record will receive."""
        return self.start_offset + len(self.records)

    def append(self, record: Record) -> None:
        self.records.append(record)

    def read_from(self, offset: int, max_records: int) -> list[Record]:
        offset = max(offset, self.start_offset)
        idx = offset - self.start_offset
        return self.records[idx : idx + max_records]

    def expire_before(self, cutoff_ns: int) -> int:
        """Drop records older than ``cutoff_ns``; return how many were dropped."""
        drop = 0
        for rec in self.records:
            if rec.timestamp_ns < cutoff_ns:
                drop += 1
            else:
                break
        if drop:
            del self.records[:drop]
            self.start_offset += drop
        return drop


class _Topic:
    def __init__(self, name: str, config: TopicConfig) -> None:
        self.name = name
        self.config = config
        self.partitions = [_Partition() for _ in range(config.partitions)]
        self.total_produced = 0
        self.total_bytes = 0
        #: Records handed to consumers by :meth:`Broker.poll` — counts
        #: every delivery, so a redelivered record counts again (the gap
        #: between produced and consumed is fan-out plus redelivery).
        self.total_consumed = 0
        self.backpressure_rejections = 0


@dataclass
class ConsumerGroup:
    """Offsets for one consumer group on one topic.

    ``offsets`` are the *committed* offsets — the group's durable
    progress, what it resumes from after a crash.  ``positions`` are the
    in-memory read positions a live consumer advances as it polls; under
    auto-commit the two move together (the legacy at-most-once mode),
    under manual commit they diverge until :meth:`Broker.commit`.
    """

    group_id: str
    topic: str
    offsets: dict[int, int] = field(default_factory=dict)
    positions: dict[int, int] = field(default_factory=dict)


class Broker:
    """A deterministic single-process message broker.

    Parameters
    ----------
    clock:
        Simulated clock used to timestamp records and drive retention.
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._topics: dict[str, _Topic] = {}
        self._groups: dict[tuple[str, str], ConsumerGroup] = {}
        #: (group, topic, partition, offset) -> failed delivery attempts.
        self._delivery_failures: dict[tuple[str, str, int, int], int] = {}
        self.records_dead_lettered = 0

    # ------------------------------------------------------------------
    # Topic management
    # ------------------------------------------------------------------
    def create_topic(self, name: str, config: TopicConfig | None = None) -> None:
        """Create ``name``; idempotent only if the topic does not exist yet."""
        if not name:
            raise ValidationError("topic name cannot be empty")
        if name in self._topics:
            raise StateError(f"topic already exists: {name}")
        self._topics[name] = _Topic(name, config or TopicConfig())

    def ensure_topic(self, name: str, config: TopicConfig | None = None) -> None:
        """Create ``name`` if missing; no-op if it already exists."""
        if name not in self._topics:
            self.create_topic(name, config)

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise NotFoundError(f"no such topic: {name}") from None

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def produce(
        self,
        topic: str,
        value: str,
        key: str | None = None,
        timestamp_ns: int | None = None,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> Record:
        """Append a message; keyed messages land deterministically on one
        partition so per-key ordering holds (per-sensor, per-xname...)."""
        t = self._topic(topic)
        if key is None:
            # Round-robin for un-keyed records.
            partition = t.total_produced % len(t.partitions)
        else:
            partition = _stable_hash(key) % len(t.partitions)
        part = t.partitions[partition]
        bound = t.config.max_records_per_partition
        if bound is not None and len(part.records) >= bound:
            t.backpressure_rejections += 1
            raise CapacityError(
                f"topic {topic!r} partition {partition} is full "
                f"({bound} records); consumer lagging — backpressure"
            )
        record = Record(
            topic,
            partition,
            part.end_offset,
            timestamp_ns if timestamp_ns is not None else self._clock.now_ns,
            key,
            value,
            headers,
        )
        part.append(record)
        t.total_produced += 1
        t.total_bytes += record.size_bytes()
        return record

    def produce_batch(
        self, topic: str, values: Iterable[str], key: str | None = None
    ) -> int:
        """Produce many values; returns the count."""
        n = 0
        for v in values:
            self.produce(topic, v, key=key)
            n += 1
        return n

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def _group(self, group_id: str, topic: str) -> ConsumerGroup:
        key = (group_id, topic)
        if key not in self._groups:
            t = self._topic(topic)
            starts = {
                p: t.partitions[p].start_offset for p in range(len(t.partitions))
            }
            self._groups[key] = ConsumerGroup(
                group_id, topic, dict(starts), dict(starts)
            )
        return self._groups[key]

    def poll(
        self,
        group_id: str,
        topic: str,
        max_records: int = 500,
        auto_commit: bool = True,
    ) -> list[Record]:
        """Fetch up to ``max_records`` new records for ``group_id``.

        With ``auto_commit`` (the legacy default) the advanced offsets are
        committed as they are read — at-most-once, adequate for telemetry
        streams.  With ``auto_commit=False`` only the in-memory read
        position advances; the records stay uncommitted until
        :meth:`commit`, so a consumer that crashes (modelled by
        :meth:`reset_to_committed`) sees them redelivered — at-least-once.
        """
        if max_records < 1:
            raise ValidationError("max_records must be positive")
        t = self._topic(topic)
        group = self._group(group_id, topic)
        out: list[Record] = []
        budget = max_records
        for pidx, part in enumerate(t.partitions):
            if budget <= 0:
                break
            current = max(group.positions.get(pidx, 0), part.start_offset)
            batch = part.read_from(current, budget)
            if batch:
                out.extend(batch)
                group.positions[pidx] = batch[-1].offset + 1
                budget -= len(batch)
        if auto_commit:
            group.offsets.update(group.positions)
        t.total_consumed += len(out)
        out.sort(key=_DELIVERY_ORDER)
        return out

    def commit(self, group_id: str, topic: str) -> int:
        """Commit the group's read positions; returns records committed."""
        group = self._group(group_id, topic)
        newly = sum(
            max(0, pos - group.offsets.get(pidx, 0))
            for pidx, pos in group.positions.items()
        )
        group.offsets.update(group.positions)
        return newly

    def committed(self, group_id: str, topic: str) -> dict[int, int]:
        """The group's committed offset per partition — what survives a
        consumer crash, and what lag accounting runs against."""
        return dict(self._group(group_id, topic).offsets)

    def seek(self, group_id: str, topic: str, partition: int, offset: int) -> None:
        """Move the group's read position on one partition (not the
        committed offset) — how a manual-commit consumer re-reads a
        record whose processing failed."""
        t = self._topic(topic)
        if not 0 <= partition < len(t.partitions):
            raise ValidationError(f"no partition {partition} in topic {topic!r}")
        group = self._group(group_id, topic)
        group.positions[partition] = max(
            offset, t.partitions[partition].start_offset
        )

    def reset_to_committed(self, group_id: str, topic: str) -> int:
        """Rewind read positions to the committed offsets — what a
        restarted consumer does after a crash.  Returns the number of
        read-but-uncommitted records that will be redelivered."""
        group = self._group(group_id, topic)
        rewound = sum(
            max(0, pos - group.offsets.get(pidx, 0))
            for pidx, pos in group.positions.items()
        )
        group.positions = dict(group.offsets)
        return rewound

    def lag(self, group_id: str, topic: str) -> int:
        """Total records beyond the group's *committed* offsets — under
        manual commit, read-but-uncommitted records still count as lag."""
        t = self._topic(topic)
        group = self._group(group_id, topic)
        total = 0
        for pidx, part in enumerate(t.partitions):
            committed = max(group.offsets.get(pidx, 0), part.start_offset)
            total += part.end_offset - committed
        return total

    # ------------------------------------------------------------------
    # Dead-letter queues
    # ------------------------------------------------------------------
    def dlq_topic(self, topic: str) -> str:
        return topic + DLQ_SUFFIX

    def fail_delivery(
        self,
        group_id: str,
        record: Record,
        error: str,
        max_failures: int = 3,
    ) -> bool:
        """Report that ``group_id`` failed to process ``record``.

        Failure counts accumulate per (group, record).  Below
        ``max_failures`` the caller is expected to :meth:`seek` back and
        retry (returns ``False``).  At ``max_failures`` the record is a
        *poison record*: it is quarantined into the topic's dead-letter
        queue with provenance headers and the caller should commit past
        it (returns ``True``).
        """
        if max_failures < 1:
            raise ValidationError("max_failures must be positive")
        key = (group_id, record.topic, record.partition, record.offset)
        count = self._delivery_failures.get(key, 0) + 1
        if count < max_failures:
            self._delivery_failures[key] = count
            return False
        self._delivery_failures.pop(key, None)
        dlq = self.dlq_topic(record.topic)
        self.ensure_topic(dlq, TopicConfig(partitions=1))
        self.produce(
            dlq,
            record.value,
            key=record.key,
            timestamp_ns=record.timestamp_ns,
            headers=record.headers
            + (
                ("dlq-source-topic", record.topic),
                ("dlq-source-partition", str(record.partition)),
                ("dlq-source-offset", str(record.offset)),
                ("dlq-failures", str(count)),
                ("dlq-error", error),
                ("dlq-group", group_id),
            ),
        )
        self.records_dead_lettered += 1
        return True

    def dlq_depth(self, topic: str) -> int:
        """Records quarantined in ``topic``'s dead-letter queue."""
        dlq = self._topics.get(self.dlq_topic(topic))
        if dlq is None:
            return 0
        return sum(len(p.records) for p in dlq.partitions)

    # ------------------------------------------------------------------
    # Retention & stats
    # ------------------------------------------------------------------
    def enforce_retention(self) -> int:
        """Apply per-topic time retention; returns total records expired."""
        expired = 0
        now = self._clock.now_ns
        for t in self._topics.values():
            if t.config.retention_ns is None:
                continue
            cutoff = now - t.config.retention_ns
            for part in t.partitions:
                expired += part.expire_before(cutoff)
        return expired

    def topic_stats(self, topic: str) -> dict[str, int]:
        """Counters consumed by the kafka-exporter."""
        t = self._topic(topic)
        return {
            "partitions": len(t.partitions),
            "total_produced": t.total_produced,
            "total_consumed": t.total_consumed,
            "total_bytes": t.total_bytes,
            "retained_records": sum(len(p.records) for p in t.partitions),
            "log_start_offset_sum": sum(p.start_offset for p in t.partitions),
            "backpressure_rejections": t.backpressure_rejections,
        }

    def group_ids(self) -> list[tuple[str, str]]:
        return sorted(self._groups)


@lru_cache(maxsize=1 << 16)
def _stable_hash(key: str) -> int:
    """Deterministic across processes, unlike ``hash()``; resolved once
    per key (xnames, hostnames, app names: a machine's worth), since the
    FNV loop is pure Python and a key is hashed on every record.

    Finalized FNV-1a: raw FNV avalanches poorly in the low bits for
    short structured keys (``x1000c0s3b0n0``-style hostnames differing
    in one digit), and ``% partitions`` reads exactly those bits — the
    same skew the ring placement fixed.  The SplitMix64 finalizer
    decorrelates them.
    """
    return mix64(fnv1a_64(key.encode()))
