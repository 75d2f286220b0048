"""The distributor: validated, replicated, quorum-acknowledged pushes.

Loki's distributor is the stateless front of the write path: it
validates each push, hashes every stream onto the ring, fans the stream
out to ``replication_factor`` ingesters, and acknowledges once a write
**quorum** (``rf // 2 + 1``) of replicas accepted.  With RF=3 the tier
keeps accepting writes — and keeps every acknowledged entry — while any
single ingester is down.

The read path is the mirror image: entries are gathered from every live
replica, then merged and deduplicated per stream, so a query returns the
complete acknowledged history while a replica is crashed or still
replaying its WAL.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from repro.common.errors import QueryError, StateError, ValidationError
from repro.common.labels import LabelSet, Matcher
from repro.loki.chunks import SEPARATOR
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import EntrySelect
from repro.ring.hashring import HashRing
from repro.ring.ingester import Ingester
from repro.ring.merge import merge_stream_columns
from repro.ring.wal import encode_bodies
from repro.tempo.tracer import Tracer
from repro.tenancy.limits import TENANT_LABEL
from repro.tenancy.sharding import ShuffleSharder

if TYPE_CHECKING:
    from repro.selfheal.memberlist import Memberlist

#: Replicas per stream; the write quorum is a majority of them.
REPLICATION_FACTOR = 3


class QuorumError(StateError):
    """Fewer than a write quorum of replicas accepted a stream."""


class ReadDegradedError(StateError, QueryError):
    """Fewer than a read quorum of replicas answered a select.

    The fan-out read tolerates individual crashed replicas by falling
    back to the survivors; only when the survivors cannot make a quorum
    does the read fail — typed, so the frontend can distinguish "the
    tier is degraded" from a malformed query.  It is also a failed
    query, so a rule evaluation that reads through it counts an
    evaluation error and holds the rule's state, as for any query that
    fails at runtime.
    """

    def __init__(self, responded: int, quorum: int) -> None:
        super().__init__(
            f"read degraded: {responded} replica(s) responded, "
            f"quorum is {quorum}"
        )
        self.responded = responded
        self.quorum = quorum


@dataclass(frozen=True)
class PushResult:
    """Outcome of one distributed push."""

    accepted: int  # entries acknowledged at quorum
    replicas_ok: int
    replicas_failed: int


class Distributor(EntrySelect):
    """Fans streams out to ring replicas; acknowledges at quorum."""

    def __init__(
        self,
        ring: HashRing,
        ingesters: Mapping[str, Ingester],
        replication_factor: int = REPLICATION_FACTOR,
        sharder: ShuffleSharder | None = None,
        zone_aware: bool = False,
        *,
        tracer: Tracer,
    ) -> None:
        if replication_factor < 1:
            raise ValidationError("replication factor must be >= 1")
        if replication_factor > len(ingesters):
            raise ValidationError(
                f"replication factor {replication_factor} exceeds "
                f"{len(ingesters)} ingester(s)"
            )
        if sharder is not None and sharder.enabled:
            if sharder.shard_size < replication_factor:
                raise ValidationError(
                    f"shard size {sharder.shard_size} cannot hold "
                    f"{replication_factor} replicas"
                )
        self.ring = ring
        self.ingesters = ingesters
        self.replication_factor = replication_factor
        self.tracer = tracer
        self.sharder = sharder
        self.zone_aware = zone_aware
        #: Failure-detector view (repro.selfheal); ``None`` = every ring
        #: member is presumed healthy, exactly the pre-selfheal behaviour.
        self.memberlist: "Memberlist | None" = None
        # Accounting for the ring exporter and bench R1.
        self.pushes = 0
        self.entries_accepted = 0
        self.replica_writes_ok = 0
        self.replica_writes_failed = 0
        self.quorum_failures = 0
        self.replicas_skipped_unhealthy = 0
        self.reads = 0
        self.reads_degraded = 0

    @property
    def write_quorum(self) -> int:
        return self.replication_factor // 2 + 1

    def _placement_ring(self, labels: LabelSet) -> HashRing:
        """The ring a stream places on: with shuffle sharding enabled and
        a ``tenant`` label present, the tenant's subring; otherwise the
        whole ring (unlabelled streams are never shard-confined)."""
        if self.sharder is None or not self.sharder.enabled:
            return self.ring
        tenant = labels.get(TENANT_LABEL)
        if not tenant:
            return self.ring
        return self.sharder.subring(tenant)

    def replicas_for(self, labels: LabelSet) -> list[str]:
        """The stream's *desired* replica set: pure ring placement with
        no health exclusions."""
        return self.replicas_excluding(labels, ())

    def replicas_excluding(
        self, labels: LabelSet, exclude: Collection[str]
    ) -> list[str]:
        """Desired placement over the ring minus ``exclude`` — where the
        stream's replicas *should* live given which members are usable
        right now.  May return fewer than RF members when too few
        survivors remain.  Every placement question (a push's targets,
        the repairer's diff) goes through here, and so through the
        ring's memo: it costs a clockwise walk only the first time it is
        asked under a given ring version and exclusion set."""
        return self._placement_ring(labels).preference_list(
            labels,
            self.replication_factor,
            zone_spread=self.zone_aware,
            exclude=exclude,
        )

    def _write_replicas(self, labels: LabelSet) -> list[str]:
        """The replicas a push actually targets: desired placement minus
        members the failure detector holds SUSPECT or DEAD.  The walk
        extends clockwise over the survivors, so the quorum is taken
        over members that can plausibly answer instead of stalling on
        ones that cannot."""
        exclude: Collection[str] = ()
        if self.memberlist is not None:
            exclude = self.memberlist.write_excluded()
        if exclude:
            self.replicas_skipped_unhealthy += sum(
                1 for member in self.replicas_for(labels) if member in exclude
            )
        return self.replicas_excluding(labels, exclude)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def push(self, request: PushRequest) -> PushResult:
        """Replicate every stream; raise :class:`QuorumError` if any
        stream lands on fewer than ``write_quorum`` live replicas.

        Every stream's live replicas are counted before any replica
        writes: a push refused for one stream's lost quorum leaves
        nothing in any replica's WAL or store, so the record a reliable
        consumer redelivers is written once, and one an at-most-once
        consumer counts failed never reads back."""
        self.pushes += 1
        tracer = self.tracer
        span_ctx = None
        # Only join the tracer's current (sampled) trace: rooting a fresh
        # trace per push would swamp the store and skew the sampling
        # counters.
        if tracer.current is not None:
            span_ctx = tracer.record(
                "distributor",
                "push",
                tracer.current,
                attributes={
                    "streams": len(request.streams),
                    "rf": self.replication_factor,
                },
            )
        placed = []
        for stream in request.streams:
            replicas = self._write_replicas(stream.labels)
            live = sum(self.ingesters[replica_id].active for replica_id in replicas)
            if live < self.write_quorum:
                self.quorum_failures += 1
                raise QuorumError(
                    f"stream {stream.labels!r}: {live} of "
                    f"{self.replication_factor} replicas live, quorum is "
                    f"{self.write_quorum}"
                )
            placed.append((stream, replicas))
        accepted_total = 0
        ok_total = failed_total = 0
        for stream, replicas in placed:
            labels, entries = stream.labels, stream.entries
            # Encoded once: every replica's WAL frames the same bodies.
            bodies = encode_bodies(entries)
            # Refused before any replica logs it: each replica's store
            # would raise part-way through, after its WAL held the push.
            if any(SEPARATOR in entry.line for entry in entries):
                raise ValidationError(
                    "log line contains reserved separator byte 0x1e"
                )
            accepted_counts = []
            for replica_id in replicas:
                try:
                    got = self.ingesters[replica_id].push_stream(
                        labels, entries, bodies
                    )
                except StateError:
                    failed_total += 1
                    self.replica_writes_failed += 1
                    continue
                accepted_counts.append(got)
                ok_total += 1
                self.replica_writes_ok += 1
                if span_ctx is not None:
                    tracer.record(
                        "ingester",
                        "append",
                        span_ctx,
                        attributes={"ingester": replica_id, "entries": got},
                    )
            # Replicas apply the same deterministic rejection logic; a
            # replica that missed earlier pushes (crash window) may reject
            # more, so the healthiest replica's count is the truth.
            accepted_total += max(accepted_counts)
        self.entries_accepted += accepted_total
        return PushResult(
            accepted=accepted_total,
            replicas_ok=ok_total,
            replicas_failed=failed_total,
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def select_columns(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        shard: tuple[int, int] | None = None,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry], array]]:
        """Quorum read: gather from every live replica, merge, dedupe.

        ``shard`` is handed to every replica, so a sharded sub-query
        neither reads nor merges the other shards' streams.

        A replica that refuses mid-fan-out (crashed between placement
        and contact) is tolerated: the read falls back to the remaining
        replicas, and — when a failure detector is attached — the
        refusal marks the member SUSPECT instead of stalling the query.
        Members the detector already holds DEAD are not contacted at
        all.  Only when fewer than a quorum of replicas answered does
        the read fail, with a typed :class:`ReadDegradedError`.
        """
        self.reads += 1
        matchers = list(matchers)
        gathered: list[tuple[LabelSet, list[LogEntry], array]] = []
        responded = 0
        for answer in self._replica_answers(
            lambda ingester: ingester.select_columns(matchers, start_ns, end_ns, shard=shard)
        ):
            gathered += answer
            responded += 1
        if responded < self.write_quorum:
            self.reads_degraded += 1
            raise ReadDegradedError(responded, self.write_quorum)
        return merge_stream_columns(gathered)

    def bytes_overlapping(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int, limit: int
    ) -> int:
        """A window's size under the quorum read's rules (fewer than a
        quorum of answers is a degraded read: the data read it stands
        before would have failed the same way).

        Replicas combine by max.  Each holds a subset of the window's
        streams, so each answer is a lower bound of the whole and the
        largest is the best of them; the walk ends at the first quorum of
        answers, in ingester order, each stopped at ``limit``.  The
        answer only sizes a plan: it changes no read's result."""
        matchers = list(matchers)
        largest = responded = 0
        for size in self._replica_answers(
            lambda ingester: ingester.bytes_overlapping(matchers, start_ns, end_ns, limit)
        ):
            largest = max(largest, size)
            responded += 1
            if responded == self.write_quorum:
                return largest
        self.reads_degraded += 1
        raise ReadDegradedError(responded, self.write_quorum)

    def _replica_answers(self, ask):
        """``ask(ingester)`` of each replica a read contacts, in ingester
        order: members the detector holds DEAD are skipped, and a replica
        that refuses (crashed) is passed over and, with a detector
        attached, marked SUSPECT."""
        for ingester_id, ingester in self.ingesters.items():
            if self.memberlist is not None and self.memberlist.read_excluded(
                ingester_id
            ):
                continue
            try:
                answer = ask(ingester)
            except StateError:
                if self.memberlist is not None:
                    self.memberlist.suspect_from_read(ingester_id)
                continue
            yield answer
