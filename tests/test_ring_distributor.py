"""Distributor + RingLokiCluster: quorum writes, merged reads, zero loss.

Ends with the acceptance test for the write path: with RF=3, killing any
single ingester mid-run loses nothing — a quorum read after the crash
and WAL replay is byte-identical to an uninterrupted run.
"""

import pytest

from repro.common.errors import NotFoundError, StateError, ValidationError
from repro.common.labels import LabelSet, label_matcher
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.ring.cluster import RingLokiCluster
from repro.ring.distributor import QuorumError, ReadDegradedError
from repro.selfheal.memberlist import Memberlist, MemberState
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]


def stream_request(app, pairs):
    return PushRequest.single({"app": app}, pairs)


def feed(cluster, count, start=0):
    """Push ``count`` entries spread over eight streams."""
    accepted = 0
    for i in range(start, start + count):
        accepted += cluster.push(
            stream_request(f"svc-{i % 8}", [(i, f"line-{i:06d}")])
        )
    return accepted


class TestDistributor:
    def test_rf_larger_than_ring_rejected(self):
        with pytest.raises(ValidationError):
            RingLokiCluster(ingesters=2, replication_factor=3, tracer=off_tracer())

    def test_rf_replicates_to_that_many_stores(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        cluster.push(stream_request("svc", [(1, "hello")]))
        holders = [
            i for i in cluster.ingesters.values() if i.store.stream_count() == 1
        ]
        assert len(holders) == 3

    def test_quorum_write_survives_one_crash(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        # Crash an ingester that definitely takes writes: a stream owner.
        cluster.crash_ingester(cluster.ring.owner("app=svc-0"))
        accepted = feed(cluster, 64)
        assert accepted == 64
        assert cluster.distributor.quorum_failures == 0
        assert cluster.distributor.replica_writes_failed > 0

    def test_quorum_error_when_two_replicas_down(self):
        cluster = RingLokiCluster(ingesters=3, replication_factor=3, tracer=off_tracer())
        cluster.crash_ingester("ingester-0")
        cluster.crash_ingester("ingester-1")
        with pytest.raises(QuorumError):
            cluster.push(stream_request("svc", [(1, "x")]))
        assert cluster.distributor.quorum_failures == 1

    def test_a_push_that_loses_quorum_writes_nothing(self):
        """The live replica took the write and kept it, WAL and store,
        while the push was refused: a retry wrote it twice, a refused
        push still read back."""
        cluster = RingLokiCluster(ingesters=3, replication_factor=3, tracer=off_tracer())
        cluster.crash_ingester("ingester-0")
        cluster.crash_ingester("ingester-1")
        for _ in range(2):
            with pytest.raises(QuorumError):
                cluster.push(stream_request("svc", [(1, "x")]))
        survivor = cluster.ingesters["ingester-2"]
        assert list(survivor.wal.replay()) == []
        assert survivor.store.stream_count() == 0
        assert cluster.distributor.replica_writes_ok == 0
        cluster.restart_ingester("ingester-0")
        cluster.restart_ingester("ingester-1")
        assert cluster.select(MATCH_ALL, 0, 10) == []
        cluster.push(stream_request("svc", [(1, "x")]))
        assert cluster.select(MATCH_ALL, 0, 10) == [
            (LabelSet({"app": "svc"}), [LogEntry(1, "x")])
        ]

    def test_every_stream_is_checked_before_any_replica_writes(self):
        """One stream of a push keeps its quorum, the next loses it: the
        first is not written either."""
        cluster = RingLokiCluster(ingesters=5, replication_factor=3, tracer=off_tracer())
        lost = LabelSet({"app": "lost"})
        down = cluster.distributor.replicas_for(lost)[:2]
        kept = next(
            labels
            for labels in (LabelSet({"app": f"kept-{i}"}) for i in range(100))
            if len(set(cluster.distributor.replicas_for(labels)) & set(down)) <= 1
        )
        for member in down:
            cluster.crash_ingester(member)
        request = PushRequest(
            streams=(
                PushStream(kept, (LogEntry(1, "ok"),)),
                PushStream(lost, (LogEntry(2, "refused"),)),
            )
        )
        with pytest.raises(QuorumError):
            cluster.push(request)
        for ingester in cluster.ingesters.values():
            if ingester.active:
                assert list(ingester.wal.replay()) == []
        assert cluster.select(MATCH_ALL, 0, 10) == []

    def test_rf1_has_no_redundancy(self):
        cluster = RingLokiCluster(ingesters=2, replication_factor=1, tracer=off_tracer())
        cluster.push(stream_request("svc", [(1, "x")]))
        owner = cluster.ring.owner("app=svc")
        cluster.crash_ingester(owner)
        with pytest.raises(QuorumError):
            cluster.push(stream_request("svc", [(2, "y")]))

    def test_logical_vs_physical_accounting(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        feed(cluster, 50)
        assert cluster.distributor.entries_accepted == 50
        # Physical totals count every replica copy.
        assert cluster.stats.entries_ingested == 150


    def test_a_reserved_separator_is_refused_before_any_replica_logs_it(self):
        """A line holding the chunk separator 0x1e was logged by the first
        replica, which then raised from its store part-way through the
        push; the other replicas never saw it, and the first one raised
        again replaying its WAL after a restart."""
        cluster = RingLokiCluster(ingesters=3, replication_factor=3, tracer=off_tracer())
        clean, bad = LabelSet({"app": "clean"}), LabelSet({"app": "bad"})
        request = PushRequest(
            streams=(
                PushStream(clean, (LogEntry(1, "ok"),)),
                PushStream(bad, (LogEntry(2, "before"), LogEntry(3, "a\x1eb"))),
            )
        )
        with pytest.raises(ValidationError, match="0x1e"):
            cluster.push(request)
        ingesters = list(cluster.ingesters.values())
        for ingester in ingesters:
            assert [labels for labels, _ in ingester.wal.replay()] == [clean]
        want = [(clean, [LogEntry(1, "ok")])]
        assert all(i.select(MATCH_ALL, 0, 10) == want for i in ingesters)
        cluster.crash_ingester("ingester-0")
        assert cluster.restart_ingester("ingester-0") == 1
        assert cluster.ingesters["ingester-0"].select(MATCH_ALL, 0, 10) == want


class TestQuorumRead:
    def test_read_complete_while_replica_down(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        feed(cluster, 80)
        whole = cluster.select(MATCH_ALL, 0, 10**9)
        cluster.crash_ingester("ingester-1")
        assert cluster.select(MATCH_ALL, 0, 10**9) == whole

    def test_merge_does_not_duplicate_replicated_entries(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        cluster.push(stream_request("svc", [(1, "a"), (2, "b"), (2, "b2")]))
        [(_, got)] = cluster.select([label_matcher("app", "=", "svc")], 0, 10)
        assert [(e.timestamp_ns, e.line) for e in got] == [
            (1, "a"),
            (2, "b"),
            (2, "b2"),
        ]

    def test_recovered_replicas_gap_is_masked(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        feed(cluster, 30)
        cluster.crash_ingester("ingester-0")
        feed(cluster, 30, start=30)  # ingester-0 misses these
        cluster.restart_ingester("ingester-0")
        feed(cluster, 30, start=60)
        merged = cluster.select(MATCH_ALL, 0, 10**9)
        assert sum(len(entries) for _, entries in merged) == 90


class TestAcceptanceZeroLoss:
    """ISSUE acceptance: crash + WAL replay == uninterrupted run, byte
    for byte, for every choice of victim ingester."""

    ENTRIES = 120

    def _uninterrupted(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        feed(cluster, self.ENTRIES)
        return cluster.select(MATCH_ALL, 0, 10**9)

    @pytest.mark.parametrize("victim", [f"ingester-{i}" for i in range(4)])
    def test_any_single_crash_loses_nothing(self, victim):
        baseline = self._uninterrupted()
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        third = self.ENTRIES // 3
        feed(cluster, third)
        cluster.crash_ingester(victim)
        feed(cluster, third, start=third)
        cluster.restart_ingester(victim)
        feed(cluster, self.ENTRIES - 2 * third, start=2 * third)
        assert cluster.select(MATCH_ALL, 0, 10**9) == baseline

    def test_crash_with_checkpoint_mid_run(self):
        baseline = self._uninterrupted()
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        feed(cluster, 40)
        cluster.checkpoint_all()
        feed(cluster, 40, start=40)
        cluster.crash_ingester("ingester-3")
        cluster.restart_ingester("ingester-3")
        feed(cluster, 40, start=80)
        assert cluster.select(MATCH_ALL, 0, 10**9) == baseline


class TestClusterFacade:
    def test_unknown_ingester_raises(self):
        cluster = RingLokiCluster(ingesters=3, replication_factor=2, tracer=off_tracer())
        with pytest.raises(NotFoundError):
            cluster.crash_ingester("ingester-99")

    def test_join_ingester_takes_future_writes(self):
        cluster = RingLokiCluster(ingesters=3, replication_factor=2, tracer=off_tracer())
        feed(cluster, 40)
        newcomer = cluster.join_ingester("ingester-3")
        with pytest.raises(ValidationError):
            cluster.join_ingester("ingester-3")
        feed(cluster, 200, start=40)
        assert newcomer.store.stats.entries_ingested > 0
        # Everything stays readable across the membership change.
        total = sum(
            len(entries)
            for _, entries in cluster.select(MATCH_ALL, 0, 10**9)
        )
        assert total == 240

    def test_leave_requires_known_member(self):
        cluster = RingLokiCluster(ingesters=3, replication_factor=2, tracer=off_tracer())
        with pytest.raises(NotFoundError):
            cluster.leave_ingester("ghost")
        cluster.leave_ingester("ingester-2")
        with pytest.raises(StateError):
            cluster.ring.preference_list("k", 3)

    def test_ring_health_snapshot(self):
        cluster = RingLokiCluster(ingesters=3, replication_factor=2, tracer=off_tracer())
        feed(cluster, 20)
        cluster.crash_ingester("ingester-0")
        health = cluster.ring_health()
        assert set(health) == {"ingester-0", "ingester-1", "ingester-2"}
        assert health["ingester-0"]["up"] == 0.0
        assert health["ingester-1"]["up"] == 1.0
        assert health["ingester-1"]["wal_records"] > 0

    def test_stream_count_is_union_not_sum(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        feed(cluster, 40)
        assert cluster.stream_count() == 8


class TestReadFallback:
    """Regression: a replica that refuses mid-fan-out must not abort the
    query — the read falls back to the survivors, and only when fewer
    than a quorum answered does it fail, with a *typed* error."""

    def test_crashed_replica_mid_read_is_tolerated(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        feed(cluster, 80)
        baseline = cluster.select(MATCH_ALL, 0, 10**9)
        cluster.crash_ingester("ingester-1")
        # Same answer off the surviving replicas, no exception.
        assert cluster.select(MATCH_ALL, 0, 10**9) == baseline

    def test_below_quorum_raises_typed_degradation(self):
        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        feed(cluster, 40)
        for ingester_id in ("ingester-0", "ingester-1", "ingester-2"):
            cluster.crash_ingester(ingester_id)
        with pytest.raises(ReadDegradedError) as excinfo:
            cluster.select(MATCH_ALL, 0, 10**9)
        assert excinfo.value.responded == 1
        assert excinfo.value.quorum == cluster.distributor.write_quorum
        assert cluster.distributor.reads_degraded == 1
        # A degraded read is still a StateError for callers that do not
        # care which kind of unavailability they hit.
        assert isinstance(excinfo.value, StateError)

    def test_refusal_marks_member_suspect_when_detector_attached(self):
        from repro.common.simclock import SimClock

        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        memberlist = Memberlist(SimClock())
        for member in sorted(cluster.ingesters):
            memberlist.register(member)
        cluster.attach_memberlist(memberlist)
        feed(cluster, 40)
        cluster.crash_ingester("ingester-2")
        cluster.select(MATCH_ALL, 0, 10**9)
        # The fan-out noticed the refusal before any sweep did.
        assert memberlist.state_of("ingester-2") is MemberState.SUSPECT
        assert memberlist.read_triggered_suspects == 1

    def test_dead_members_not_contacted_at_all(self):
        from repro.common.simclock import SimClock

        cluster = RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())
        memberlist = Memberlist(SimClock())
        for member in sorted(cluster.ingesters):
            memberlist.register(member)
        cluster.attach_memberlist(memberlist)
        feed(cluster, 40)
        memberlist.suspect("ingester-3")
        memberlist.declare_dead("ingester-3")
        contacted = []
        dead = cluster.ingesters["ingester-3"]
        real_select = dead.select_columns
        dead.select_columns = lambda *a, **k: contacted.append(1) or real_select(*a, **k)  # type: ignore[method-assign]
        cluster.select(MATCH_ALL, 0, 10**9)
        assert not contacted

    def test_writes_route_around_excluded_members(self):
        from repro.common.simclock import SimClock

        cluster = RingLokiCluster(ingesters=5, replication_factor=3, tracer=off_tracer())
        memberlist = Memberlist(SimClock())
        for member in sorted(cluster.ingesters):
            memberlist.register(member)
        cluster.attach_memberlist(memberlist)
        memberlist.suspect("ingester-0")
        accepted = feed(cluster, 40)
        assert accepted == 40
        # The walk extended over healthy members: full RF everywhere,
        # nothing landed on the suspect.
        assert cluster.ingesters["ingester-0"].store.stats.entries_ingested == 0
        assert cluster.distributor.replicas_skipped_unhealthy > 0
        assert cluster.distributor.quorum_failures == 0

    def test_skipped_unhealthy_counts_every_push_not_every_walk(self):
        # Placement is memoised; the counter must not be.  Per push it
        # adds the desired replicas the detector excludes, worked out
        # here on a ring that has never answered anything.
        from repro.common.labels import LabelSet
        from repro.common.simclock import SimClock
        from repro.ring.hashring import HashRing, stream_key

        cluster = RingLokiCluster(ingesters=5, replication_factor=3, tracer=off_tracer())
        memberlist = Memberlist(SimClock())
        for member in sorted(cluster.ingesters):
            memberlist.register(member)
        cluster.attach_memberlist(memberlist)
        fresh = HashRing()
        for member in sorted(cluster.ingesters):
            fresh.join(member)
        feed(cluster, 16)
        assert cluster.distributor.replicas_skipped_unhealthy == 0
        memberlist.suspect("ingester-0")
        feed(cluster, 40, start=16)
        memberlist.suspect("ingester-3")
        feed(cluster, 24, start=56)
        want = 0
        for i in range(16, 80):
            excluded = {"ingester-0"} if i < 56 else {"ingester-0", "ingester-3"}
            key = stream_key(LabelSet({"app": f"svc-{i % 8}"}))
            want += len(excluded & set(fresh.preference_list(key, 3)))
        assert cluster.distributor.replicas_skipped_unhealthy == want > 0
