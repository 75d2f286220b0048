"""Anti-entropy repair: retire DEAD members, restore redundancy.

The repair contract: after a member is lost *permanently* (never
restarted), every acknowledged entry is still readable, every stream is
back at full effective replication, the member's tokens are released
and its memberlist entry is terminal — all without operator action.
"""

from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, minutes, seconds
from repro.loki.model import LogEntry
from repro.selfheal.manager import SelfHealManager
from repro.selfheal.memberlist import MemberState
from repro.ring.cluster import RingLokiCluster
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]
N_STREAMS = 12
ENTRIES_PER_STREAM = 10


def make_healing_cluster(ingesters=6, zones=0):
    clock = SimClock()
    cluster = RingLokiCluster(
        ingesters=ingesters, replication_factor=3, zones=zones,
        tracer=off_tracer(),
    )
    manager = SelfHealManager(clock, cluster, tracer=off_tracer())
    for job in manager.jobs():
        clock.every(job.interval_ns, job.run)
    return clock, cluster, manager


def feed(cluster, streams=N_STREAMS, entries=ENTRIES_PER_STREAM):
    expected = {}
    for i in range(streams):
        labels = LabelSet({"app": f"svc-{i}"})
        rows = [
            LogEntry(1_000 * (j + 1), f"s{i}-line-{j:04d}")
            for j in range(entries)
        ]
        cluster.push_stream(labels, rows)
        expected[labels] = rows
    return expected


def read_all(cluster):
    return {
        labels: entries
        for labels, entries in cluster.select(MATCH_ALL, 0, 10**12)
    }


class TestRepair:
    def test_permanent_loss_is_repaired_end_to_end(self):
        clock, cluster, mgr = make_healing_cluster()
        expected = feed(cluster)
        victim = "ingester-3"
        cluster.crash_ingester(victim)
        mgr.mark_unrecoverable(victim)
        clock.advance(minutes(3))
        # Retired: forgotten, tokens released, husk removed.
        assert mgr.memberlist.state_of(victim) is MemberState.FORGOTTEN
        assert victim not in cluster.ring.members()
        assert victim not in cluster.ingesters
        assert mgr.repairer.members_repaired_total == 1
        # Redundancy restored: the live placement diff is empty.
        assert mgr.under_replicated_streams() == 0
        # Zero loss: every acknowledged entry, exactly once.
        assert read_all(cluster) == expected

    def test_under_replication_gauge_fires_then_self_resolves(self):
        clock, cluster, mgr = make_healing_cluster()
        feed(cluster)
        assert mgr.under_replicated_streams() == 0
        victim = "ingester-1"
        cluster.crash_ingester(victim)
        mgr.mark_unrecoverable(victim)
        # Detection window: DEAD by then, grace not yet expired — the
        # gauge must fire while the member still holds ring tokens.
        clock.advance(seconds(60))
        assert mgr.memberlist.state_of(victim) is MemberState.DEAD
        assert victim in cluster.ring.members()
        during = mgr.under_replicated_streams()
        assert during > 0
        clock.advance(minutes(2))
        assert mgr.under_replicated_streams() == 0

    def test_grace_period_gives_restarts_first_claim(self):
        clock, cluster, mgr = make_healing_cluster()
        feed(cluster)
        victim = "ingester-2"
        cluster.crash_ingester(victim)
        mgr.mark_unrecoverable(victim)
        # Past detection (DEAD) but inside the grace window: no repair.
        clock.advance(seconds(60))
        assert mgr.memberlist.state_of(victim) is MemberState.DEAD
        assert mgr.repairer.members_repaired_total == 0
        assert victim in cluster.ingesters

    def test_recoverable_crash_is_restarted_not_repaired(self):
        clock, cluster, mgr = make_healing_cluster()
        expected = feed(cluster)
        cluster.crash_ingester("ingester-0")
        clock.advance(minutes(3))
        # The supervisor won the race the grace period arranges.
        assert mgr.supervisor.restarts_total >= 1
        assert mgr.repairer.members_repaired_total == 0
        assert mgr.memberlist.state_of("ingester-0") is MemberState.ACTIVE
        assert read_all(cluster) == expected

    def test_holdback_defers_repair(self):
        clock, cluster, mgr = make_healing_cluster(zones=3)
        feed(cluster)
        downed = mgr.begin_zone_outage("zone-1")
        assert downed  # zone had active members
        clock.advance(minutes(3))
        # DEAD past grace, but the zone is declared down: held, not
        # retired — the supervisor restarts them when the outage ends.
        for member in downed:
            assert mgr.memberlist.state_of(member) is MemberState.DEAD
            assert member in cluster.ingesters
        assert mgr.repairer.members_held_back > 0
        assert mgr.repairer.members_repaired_total == 0

    def test_repair_report_accounts_for_transfers(self):
        clock, cluster, mgr = make_healing_cluster()
        feed(cluster)
        # Pick a member that actually holds stream replicas, so the
        # repair has something to move.
        victim = max(
            cluster.ingesters,
            key=lambda m: len(cluster.ingesters[m].stream_inventory()),
        )
        cluster.crash_ingester(victim)
        mgr.mark_unrecoverable(victim)
        clock.advance(minutes(3))
        (report,) = mgr.repairer.reports
        assert report.member == victim
        assert report.streams_repaired >= 1
        assert report.entries_copied > 0
        assert report.targets_checkpointed >= 1
        assert victim not in {target for target, _, _ in report.transfers}
        assert mgr.repairer.entries_copied_total == report.entries_copied

    def test_repaired_state_survives_target_crash(self):
        """The post-repair checkpoint re-anchors WAL durability: a
        repair target crashed *after* repair replays the grafted
        history, not its pre-repair state."""
        clock, cluster, mgr = make_healing_cluster()
        expected = feed(cluster)
        victim = max(
            cluster.ingesters,
            key=lambda m: len(cluster.ingesters[m].stream_inventory()),
        )
        cluster.crash_ingester(victim)
        mgr.mark_unrecoverable(victim)
        clock.advance(minutes(3))
        (report,) = mgr.repairer.reports
        targets = {target for target, _, _ in report.transfers}
        assert targets
        for target in targets:
            cluster.crash_ingester(target)
            cluster.restart_ingester(target)
        assert read_all(cluster) == expected
        assert mgr.under_replicated_streams() == 0

    def test_consecutive_losses_converge(self):
        """Losing a second member after the first repair completes must
        converge again — placement keeps shrinking onto survivors."""
        clock, cluster, mgr = make_healing_cluster()
        expected = feed(cluster)
        for victim in ("ingester-0", "ingester-1"):
            cluster.crash_ingester(victim)
            mgr.mark_unrecoverable(victim)
            clock.advance(minutes(3))
        assert mgr.repairer.members_repaired_total == 2
        assert len(cluster.ingesters) == 4
        assert mgr.under_replicated_streams() == 0
        assert read_all(cluster) == expected


class TestZoneAwarePlacement:
    def test_replicas_span_distinct_zones(self):
        _, cluster, _ = make_healing_cluster(ingesters=6, zones=3)
        for i in range(40):
            labels = LabelSet({"app": f"svc-{i}"})
            replicas = cluster.distributor.replicas_for(labels)
            zones = {cluster.ring.zone(m) for m in replicas}
            assert len(zones) == 3, (labels, replicas)

    def test_zone_outage_leaves_a_readable_replica_elsewhere(self):
        clock, cluster, mgr = make_healing_cluster(ingesters=6, zones=3)
        expected = feed(cluster)
        mgr.begin_zone_outage("zone-0")
        clock.advance(seconds(60))
        # Every stream keeps >= write-quorum replicas outside the
        # faulted zone, so reads stay exact mid-outage.
        assert read_all(cluster) == expected

    def test_unzoned_cluster_places_without_spread(self):
        _, cluster, _ = make_healing_cluster(ingesters=6, zones=0)
        labels = LabelSet({"app": "svc"})
        assert len(cluster.distributor.replicas_for(labels)) == 3
        assert cluster.ring.zones() == []


class TestTouchedSetContract:
    """Between two membership epochs the repairer re-diffs only streams
    an ingester's store marked.  Each way a stream's resident count can
    move on one replica alone must therefore reach the maintained diff —
    checked here one cause at a time, on streams nothing else touched."""

    def quiet_cluster(self):
        from repro.loki.chunks import ChunkPolicy

        clock = SimClock()
        cluster = RingLokiCluster(
            ingesters=5,
            replication_factor=3,
            policy=ChunkPolicy(target_size_bytes=64),
            tracer=off_tracer(),
        )
        # Not started: no sweep grafts behind the test's back.
        mgr = SelfHealManager(clock, cluster, tracer=off_tracer())
        feed(cluster, streams=6, entries=6)
        repairer = mgr.repairer
        assert repairer.placement_diff() == {}
        return cluster, repairer

    def assert_maintained_is_full(self, cluster, repairer, want):
        assert repairer.placement_diff() == want
        assert repairer.diff_over(cluster.stream_labels()) == want

    def test_a_shipper_free_on_one_replica(self):
        # E.g. a flush the object store failed half way through.
        cluster, repairer = self.quiet_cluster()
        labels = LabelSet({"app": "svc-2"})
        member = cluster.distributor.replicas_for(labels)[1]
        store = cluster.ingesters[member].store
        chunk = next(c for ls, c in store.sealed_chunks() if ls == labels)
        assert store.drop_chunk(labels, chunk)
        self.assert_maintained_is_full(cluster, repairer, {labels: [member]})
        # The graft marks the stream too: the next ask sees it healed.
        assert repairer.heal().streams_repaired == 1
        self.assert_maintained_is_full(cluster, repairer, {})

    def test_a_retention_delete_on_one_replica(self):
        cluster, repairer = self.quiet_cluster()
        # Older than everything feed() wrote, so a cutoff can single it out.
        labels = LabelSet({"app": "old"})
        cluster.push_stream(
            labels, [LogEntry(j + 1, f"old-line-{j:04d}") for j in range(6)]
        )
        assert repairer.placement_diff() == {}
        member = cluster.distributor.replicas_for(labels)[0]
        assert cluster.ingesters[member].store.delete_before(5) >= 1
        self.assert_maintained_is_full(cluster, repairer, {labels: [member]})

    def test_a_restart_that_lost_a_stream_between_two_asks(self):
        # Crash and restart land between two sweeps, so the usable *set*
        # never changed; the torn WAL tail means the stream's only record
        # on this replica is gone and replay marks nothing for it.
        clock = SimClock()
        cluster = RingLokiCluster(ingesters=5, replication_factor=3, tracer=off_tracer())
        repairer = SelfHealManager(clock, cluster, tracer=off_tracer()).repairer
        feed(cluster, streams=4, entries=3)
        labels = LabelSet({"app": "late"})
        cluster.push_stream(labels, [LogEntry(1, "only")])
        assert repairer.placement_diff() == {}
        member = cluster.distributor.replicas_for(labels)[2]
        ingester = cluster.ingesters[member]
        ingester.wal.segments[-1].truncate_tail(4)
        ingester.crash()
        ingester.restart()
        assert labels not in ingester.stream_inventory()
        self.assert_maintained_is_full(cluster, repairer, {labels: [member]})

    def test_streams_still_short_stay_in_the_diff_untouched(self):
        cluster, repairer = self.quiet_cluster()
        labels = LabelSet({"app": "svc-0"})
        member = cluster.distributor.replicas_for(labels)[0]
        store = cluster.ingesters[member].store
        chunk = next(c for ls, c in store.sealed_chunks() if ls == labels)
        store.drop_chunk(labels, chunk)
        for _ in range(3):  # nothing marks it again; it must not fall out
            self.assert_maintained_is_full(cluster, repairer, {labels: [member]})
