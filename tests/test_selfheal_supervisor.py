"""The ingester supervisor: restart what can be restarted.

Restart semantics under test: a recoverable crash comes back via WAL
replay with nothing moved; repeated crashes escalate through capped
exponential backoff (the counter clears only after the member *survives*
the backoff window); unrecoverable members and members in a declared-
down zone are left for the repair path.
"""

import pytest

from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, minutes, seconds
from repro.loki.model import LogEntry
from repro.resilience.backoff import BackoffPolicy
from repro.ring.cluster import RingLokiCluster
from repro.selfheal.memberlist import Memberlist, MemberState
from repro.selfheal.supervisor import IngesterSupervisor, SupervisorConfig
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]


def make_supervised(ingesters=4, config=None):
    clock = SimClock()
    cluster = RingLokiCluster(ingesters=ingesters, replication_factor=3, tracer=off_tracer())
    memberlist = Memberlist(clock)
    for member in sorted(cluster.ingesters):
        memberlist.register(member)
    supervisor = IngesterSupervisor(clock, cluster, memberlist)
    if config is not None:
        supervisor.config = config
    clock.every(supervisor.config.sweep_interval_ns, supervisor.sweep)
    return clock, cluster, memberlist, supervisor


class TestRestart:
    def test_crashed_member_restarted_with_wal_replay(self):
        clock, cluster, memberlist, supervisor = make_supervised()
        expected = {}
        for i in range(8):
            labels = LabelSet({"app": f"svc-{i}"})
            rows = [LogEntry(1_000 * (j + 1), f"s{i}-{j}") for j in range(5)]
            cluster.push_stream(labels, rows)
            expected[labels] = rows
        cluster.crash_ingester("ingester-1")
        clock.advance(seconds(10))
        assert cluster.ingesters["ingester-1"].active
        assert supervisor.restarts_total == 1
        assert supervisor.records_replayed_total > 0
        # The restart stamps a heartbeat: the member is live again.
        assert memberlist.state_of("ingester-1") is MemberState.ACTIVE
        assert dict(cluster.select(MATCH_ALL, 0, 10**9)) == expected

    def test_unrecoverable_member_left_for_repair(self):
        clock, cluster, _, supervisor = make_supervised()
        cluster.crash_ingester("ingester-0")
        supervisor.mark_unrecoverable("ingester-0")
        clock.advance(minutes(2))
        assert not cluster.ingesters["ingester-0"].active
        assert supervisor.restarts_total == 0
        assert supervisor.skipped_unrecoverable > 0
        # mark_recoverable reverses the verdict.
        supervisor.mark_recoverable("ingester-0")
        clock.advance(seconds(10))
        assert cluster.ingesters["ingester-0"].active

    def test_zone_down_bars_restart_until_lifted(self):
        clock = SimClock()
        cluster = RingLokiCluster(ingesters=6, replication_factor=3, zones=3, tracer=off_tracer())
        memberlist = Memberlist(clock)
        for member in sorted(cluster.ingesters):
            memberlist.register(member)
        supervisor = IngesterSupervisor(clock, cluster, memberlist)
        clock.every(supervisor.config.sweep_interval_ns, supervisor.sweep)
        supervisor.mark_zone_down("zone-1")
        for member in cluster.ring.members_in_zone("zone-1"):
            cluster.crash_ingester(member)
        clock.advance(minutes(1))
        assert supervisor.restarts_total == 0
        assert supervisor.skipped_zone_down > 0
        supervisor.mark_zone_up("zone-1")
        clock.advance(seconds(10))
        assert supervisor.restarts_total == 2
        assert all(
            cluster.ingesters[m].active
            for m in cluster.ring.members_in_zone("zone-1")
        )

    def test_forgotten_member_never_restarted(self):
        clock, cluster, memberlist, supervisor = make_supervised()
        cluster.crash_ingester("ingester-2")
        memberlist.suspect("ingester-2")
        memberlist.declare_dead("ingester-2")
        memberlist.forget("ingester-2")
        clock.advance(minutes(1))
        assert supervisor.restarts_total == 0
        assert not cluster.ingesters["ingester-2"].active


class TestBackoff:
    def crash_loop_config(self):
        return SupervisorConfig(
            sweep_interval_ns=seconds(5),
            backoff=BackoffPolicy(
                base_ns=seconds(10),
                cap_ns=seconds(80),
                multiplier=2.0,
                jitter=0.0,  # deterministic delays for exact assertions
                seed=1,
            ),
        )

    def test_crash_loop_escalates_delays(self):
        clock, cluster, _, supervisor = make_supervised(
            config=self.crash_loop_config()
        )
        restart_times = []
        # Crash immediately after every restart: a crash loop.
        previous = supervisor.restarts_total
        cluster.crash_ingester("ingester-3")
        for _ in range(240):  # 20 minutes in 5s steps
            clock.advance(seconds(5))
            if supervisor.restarts_total > previous:
                previous = supervisor.restarts_total
                restart_times.append(clock.now_ns)
                cluster.crash_ingester("ingester-3")
        assert len(restart_times) >= 4
        gaps = [
            b - a for a, b in zip(restart_times, restart_times[1:])
        ]
        # Consecutive gaps never shrink and double until the cap.
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[1] >= 2 * seconds(10)
        assert max(gaps) <= seconds(80) + seconds(5)  # cap + sweep grain
        assert supervisor.skipped_backoff > 0

    def test_surviving_backoff_window_clears_the_counter(self):
        clock, cluster, _, supervisor = make_supervised(
            config=self.crash_loop_config()
        )
        # First crash/restart cycle.
        cluster.crash_ingester("ingester-3")
        clock.advance(seconds(5))
        assert supervisor.restarts_total == 1
        # Survive well past the first backoff window: counter clears.
        clock.advance(minutes(2))
        # The next crash is treated as a fresh incident: restarted on
        # the next sweep instead of waiting out an escalated delay.
        cluster.crash_ingester("ingester-3")
        clock.advance(seconds(5))
        assert supervisor.restarts_total == 2

    def test_config_rejects_bad_interval(self):
        with pytest.raises(Exception):
            SupervisorConfig(sweep_interval_ns=0)
