"""Property-based suite for the self-healing loop.

Three invariants, each over randomized configurations or histories:

1. **No flapping** — for every *valid* detector config (validation
   enforces ``suspect_after > interval*(1+jitter)``) a healthy cluster
   records zero suspicions, however the jitter lands.
2. **Bounded detection** — a member going silent at any time is declared
   DEAD within ``config.max_detection_latency_ns`` of its silence.
3. **Convergence** — after any bounded sequence of joins, voluntary
   leaves, recoverable crashes and permanent losses, the
   placement-vs-replica diff is empty and every acknowledged entry is
   still read back exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, minutes, seconds
from repro.loki.model import LogEntry
from repro.ring.cluster import RingLokiCluster
from repro.selfheal.detector import FailureDetector, FailureDetectorConfig
from repro.selfheal.manager import SelfHealManager
from repro.selfheal.memberlist import Memberlist, MemberState
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]


def valid_detector_configs():
    """Configs that pass validation by construction: the suspicion
    threshold clears the worst-case heartbeat gap by a drawn margin."""

    def build(interval_s, jitter, margin_s, dead_extra_s, sweep_s):
        interval_ns = seconds(interval_s)
        suspect_ns = int(interval_ns * (1.0 + jitter)) + seconds(margin_s)
        return FailureDetectorConfig(
            heartbeat_interval_ns=interval_ns,
            suspect_after_ns=suspect_ns,
            dead_after_ns=suspect_ns + seconds(dead_extra_s),
            sweep_interval_ns=seconds(sweep_s),
            jitter=jitter,
        )

    return st.builds(
        build,
        interval_s=st.integers(min_value=1, max_value=10),
        jitter=st.floats(min_value=0.0, max_value=0.45),
        margin_s=st.integers(min_value=1, max_value=20),
        dead_extra_s=st.integers(min_value=1, max_value=30),
        sweep_s=st.integers(min_value=1, max_value=10),
    )


def detector_under(config, ingesters=4):
    clock = SimClock()
    cluster = RingLokiCluster(ingesters=ingesters, replication_factor=3, tracer=off_tracer())
    memberlist = Memberlist(clock)
    for member in sorted(cluster.ingesters):
        memberlist.register(member)
    detector = FailureDetector(clock, cluster, memberlist, config, tracer=off_tracer())
    clock.every(detector.config.sweep_interval_ns, detector.sweep)
    return clock, cluster, memberlist, detector


class TestNoFlapping:
    @settings(max_examples=30, deadline=None)
    @given(config=valid_detector_configs())
    def test_healthy_cluster_records_zero_suspicions(self, config):
        clock, _, memberlist, _ = detector_under(config)
        clock.advance(minutes(5))
        assert memberlist.suspects_total == 0
        assert memberlist.in_state(MemberState.ACTIVE) == memberlist.members()


class TestBoundedDetection:
    @settings(max_examples=30, deadline=None)
    @given(
        config=valid_detector_configs(),
        silence_after_s=st.integers(min_value=0, max_value=120),
        victim=st.integers(min_value=0, max_value=3),
    )
    def test_silent_member_declared_dead_within_bound(
        self, config, silence_after_s, victim
    ):
        clock, cluster, memberlist, detector = detector_under(config)
        clock.advance(seconds(silence_after_s))
        member = f"ingester-{victim}"
        silent_at = clock.now_ns
        cluster.crash_ingester(member)
        bound = config.max_detection_latency_ns
        clock.advance(2 * bound)
        assert memberlist.state_of(member) is MemberState.DEAD
        assert detector.detected_dead_at_ns[member] - silent_at <= bound


def membership_ops():
    """A bounded history: at most two permanent losses and two voluntary
    leaves (the cluster starts with eight members, so the ring never
    drops below RF + quorum headroom), any number of recoverable crashes
    and joins."""
    op = st.one_of(
        st.tuples(st.just("crash_permanent"), st.integers(0, 7)),
        st.tuples(st.just("crash_recoverable"), st.integers(0, 7)),
        st.tuples(st.just("leave"), st.integers(0, 7)),
        st.tuples(st.just("join"), st.integers(0, 7)),
    )

    def bounded(ops):
        permanents = sum(1 for kind, _ in ops if kind == "crash_permanent")
        leaves = sum(1 for kind, _ in ops if kind == "leave")
        return permanents <= 2 and leaves <= 2

    return st.lists(op, min_size=1, max_size=6).filter(bounded)


class TestConvergence:
    @settings(max_examples=15, deadline=None)
    @given(ops=membership_ops(), data=st.data())
    def test_post_repair_placement_diff_is_empty(self, ops, data):
        clock = SimClock()
        cluster = RingLokiCluster(ingesters=8, replication_factor=3, tracer=off_tracer())
        mgr = SelfHealManager(clock, cluster, tracer=off_tracer())
        for job in mgr.jobs():
            clock.every(job.interval_ns, job.run)
        expected: dict[LabelSet, list[LogEntry]] = {}
        next_ts = [1]
        joined = [0]

        def push_some(n=4):
            for i in range(n):
                labels = LabelSet({"app": f"svc-{i}"})
                ts = next_ts[0]
                next_ts[0] += 1
                entry = LogEntry(ts, f"line-{ts:06d}")
                cluster.push_stream(labels, [entry])
                expected.setdefault(labels, []).append(entry)

        push_some(8)
        for kind, idx in ops:
            # Only touch members that are still rung-in and restartable:
            # never crash or rotate out so many that writes lose quorum.
            ring_members = cluster.ring.members()
            usable = [
                m
                for m in ring_members
                if cluster.ingesters[m].active
                and not mgr.memberlist.read_excluded(m)
                and not mgr.supervisor.is_unrecoverable(m)
            ]
            if kind == "join":
                member = f"joined-{joined[0]}"
                joined[0] += 1
                cluster.join_ingester(member)
                mgr.adopt(member)
            elif len(usable) > 5:
                member = usable[idx % len(usable)]
                if kind == "leave":
                    cluster.leave_ingester(member)
                elif kind == "crash_recoverable":
                    cluster.crash_ingester(member)
                elif kind == "crash_permanent":
                    cluster.crash_ingester(member)
                    mgr.mark_unrecoverable(member)
            # Let detection / restart / repair make progress, then keep
            # writing — the walk must extend over whoever is healthy.
            clock.advance(seconds(data.draw(st.integers(60, 120))))
            push_some()
        # Quiesce: every permanent loss needs detection + grace + a
        # repair sweep; everything recoverable has long since restarted.
        clock.advance(minutes(4))
        assert mgr.repairer.placement_diff() == {}
        got = dict(cluster.select(MATCH_ALL, 0, 10**12))
        assert got == expected
        # Permanent losses were actually retired, not left as zombies.
        for member in mgr.memberlist.in_state(MemberState.FORGOTTEN):
            assert member not in cluster.ingesters


ZONES = ["zone-0", "zone-1", "zone-2"]


def churn_ops():
    """Everything that can move a stream's diff row, in any order: new
    entries, crashes the supervisor restarts, restarts that land between
    two sweeps (so the usable *set* never visibly changed), a rolling
    restart, a zone outage and its end, a voluntary leave, a scale-out
    join, a shipper flush freeing sealed chunks, a retention delete."""
    member = st.integers(0, 8)
    return st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.integers(0, 11), st.integers(1, 4)),
            st.tuples(st.just("crash"), member),
            st.tuples(st.just("crash_restart"), member),
            st.tuples(st.just("rolling_restart"), member),
            st.tuples(st.just("zone_outage"), st.sampled_from(ZONES)),
            st.tuples(st.just("zone_restore"), st.sampled_from(ZONES)),
            st.tuples(st.just("leave"), member),
            st.tuples(st.just("join"), st.sampled_from(ZONES)),
            st.tuples(st.just("ship"), st.booleans()),
            st.tuples(st.just("retention"), st.integers(0, 40)),
            st.tuples(st.just("wait"), st.integers(1, 90)),
        ),
        min_size=4,
        max_size=28,
    )


class TestIncrementalDiff:
    """The repairer maintains its placement diff from the streams the
    ingesters touched; the answer must be the one a diff over *every*
    stream gives, each time anyone asks — sweep, heal, retire or scrape."""

    @settings(max_examples=60, deadline=None)
    @given(ops=churn_ops())
    def test_maintained_diff_equals_the_diff_over_all_streams(self, ops):
        from repro.common.errors import StateError
        from repro.loki.chunks import ChunkPolicy
        from repro.objstore import ChunkShipper, ObjectStore, ShipperIndex

        clock = SimClock()
        cluster = RingLokiCluster(
            ingesters=6,
            replication_factor=3,
            zones=3,
            policy=ChunkPolicy(target_size_bytes=96),
            tracer=off_tracer(),
        )
        mgr = SelfHealManager(clock, cluster, tracer=off_tracer())
        objstore = ObjectStore(clock)
        shipper = ChunkShipper(cluster, objstore, ShipperIndex(objstore), clock,
            tracer=off_tracer())
        repairer = mgr.repairer
        checks = [0]
        maintained = repairer.placement_diff

        def checked_placement_diff():
            diff = maintained()
            assert diff == repairer.diff_over(cluster.stream_labels())
            checks[0] += 1
            return diff

        # heal(), repair_member() and under_replicated_streams() all ask
        # through the instance, so every sweep and every scrape is checked.
        repairer.placement_diff = checked_placement_diff
        for job in mgr.jobs():
            clock.every(job.interval_ns, job.run)
        next_ts = [1]
        joined = [0]

        def push(stream, n):
            labels = LabelSet({"app": f"svc-{stream}"})
            entries = []
            for _ in range(n):
                entries.append(LogEntry(next_ts[0], f"line {next_ts[0]:05d} " + "x" * 24))
                next_ts[0] += 1
            try:
                cluster.push_stream(labels, entries)
            except StateError:
                pass  # below quorum: whichever replicas took it, took it

        def pick(idx, want_active):
            members = [
                m for m, ing in sorted(cluster.ingesters.items())
                if ing.active == want_active
            ]
            return members[idx % len(members)] if members else None

        for stream in range(12):
            push(stream, 3)
        for op in ops:
            kind = op[0]
            if kind == "push":
                push(op[1], op[2])
            elif kind == "crash" and (m := pick(op[1], True)):
                cluster.crash_ingester(m)
            elif kind == "crash_restart" and (m := pick(op[1], True)):
                cluster.crash_ingester(m)
                cluster.restart_ingester(m)
            elif kind == "rolling_restart" and (m := pick(op[1], True)):
                cluster.restart_ingester(m)
            elif kind == "zone_outage" and cluster.ring.members_in_zone(op[1]):
                mgr.begin_zone_outage(op[1])
            elif kind == "zone_restore":
                mgr.end_zone_outage(op[1])
            elif kind == "leave" and len(cluster.ring) > 4:
                ring_members = cluster.ring.members()
                cluster.leave_ingester(ring_members[op[1] % len(ring_members)])
            elif kind == "join":
                member = f"joined-{joined[0]}"
                joined[0] += 1
                cluster.join_ingester(member, zone=op[1])
                mgr.adopt(member)
            elif kind == "ship":
                if op[1]:  # else only what already sealed by size goes
                    cluster.flush_all()
                shipper.flush()
            elif kind == "retention":
                cluster.flush_all()
                cluster.delete_before(op[1])
            elif kind == "wait":
                clock.advance(seconds(op[1]))
            # A scrape between sweeps: refreshes the same maintained diff.
            assert mgr.under_replicated_streams() == len(
                repairer.diff_over(cluster.stream_labels())
            )
            clock.advance(seconds(7))
        for zone in ZONES:
            mgr.end_zone_outage(zone)
        clock.advance(minutes(5))
        assert checks[0] > len(ops)
