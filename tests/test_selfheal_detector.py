"""Memberlist lifecycle + heartbeat-driven failure detection.

The detector's two contractual properties, pinned here and generalised
by the Hypothesis suite (``test_selfheal_properties``):

* **No flapping** — a healthy member's heartbeat age can never reach the
  suspicion threshold (config validation enforces ``suspect_after >
  interval * (1 + jitter)``), so a healthy cluster records zero
  suspicions no matter how long it runs.
* **Bounded detection** — a member going silent is declared DEAD no
  later than ``heartbeat_interval*(1+jitter) + dead_after +
  sweep_interval`` after its last stamp.
"""

import pytest

from repro.common.errors import StateError, ValidationError
from repro.common.simclock import SimClock, minutes, seconds
from repro.ring.cluster import RingLokiCluster
from repro.selfheal.detector import FailureDetector, FailureDetectorConfig
from repro.selfheal.memberlist import Memberlist, MemberState
from tests.tracing import off_tracer


def make_detector(ingesters=4, **cfg_kwargs):
    clock = SimClock()
    cluster = RingLokiCluster(ingesters=ingesters, replication_factor=3, tracer=off_tracer())
    memberlist = Memberlist(clock)
    for member in sorted(cluster.ingesters):
        memberlist.register(member)
    config = FailureDetectorConfig(**cfg_kwargs) if cfg_kwargs else None
    detector = FailureDetector(clock, cluster, memberlist, config, tracer=off_tracer())
    return clock, cluster, memberlist, detector


class TestMemberlistLifecycle:
    def test_registers_active_with_fresh_stamp(self):
        clock = SimClock()
        ml = Memberlist(clock)
        ml.register("a")
        assert ml.state_of("a") is MemberState.ACTIVE
        assert ml.heartbeat_age_ns("a") == 0

    def test_duplicate_and_empty_registration_rejected(self):
        ml = Memberlist(SimClock())
        ml.register("a")
        with pytest.raises(StateError):
            ml.register("a")
        with pytest.raises(ValidationError):
            ml.register("")

    def test_full_lifecycle_walk(self):
        ml = Memberlist(SimClock())
        ml.register("a")
        ml.suspect("a")
        assert ml.state_of("a") is MemberState.SUSPECT
        ml.declare_dead("a")
        assert ml.state_of("a") is MemberState.DEAD
        ml.forget("a")
        assert ml.state_of("a") is MemberState.FORGOTTEN
        assert (ml.suspects_total, ml.deaths_total, ml.forgotten_total) == (
            1,
            1,
            1,
        )

    def test_illegal_transitions_rejected(self):
        ml = Memberlist(SimClock())
        ml.register("a")
        with pytest.raises(StateError):
            ml.declare_dead("a")  # ACTIVE cannot skip SUSPECT
        with pytest.raises(StateError):
            ml.forget("a")  # only DEAD members are forgotten
        ml.suspect("a")
        with pytest.raises(StateError):
            ml.suspect("a")  # already suspect
        with pytest.raises(StateError):
            ml.state_of("ghost")

    def test_heartbeat_snaps_suspect_and_dead_back_to_active(self):
        ml = Memberlist(SimClock())
        ml.register("a")
        ml.suspect("a")
        ml.heartbeat("a")
        assert ml.state_of("a") is MemberState.ACTIVE
        ml.suspect("a")
        ml.declare_dead("a")
        ml.heartbeat("a")
        assert ml.state_of("a") is MemberState.ACTIVE
        assert ml.recoveries_total == 2

    def test_forgotten_is_terminal_zombie_heartbeat_rejected(self):
        ml = Memberlist(SimClock())
        ml.register("a")
        ml.suspect("a")
        ml.declare_dead("a")
        ml.forget("a")
        with pytest.raises(StateError):
            ml.heartbeat("a")
        assert ml.state_of("a") is MemberState.FORGOTTEN

    def test_routing_views(self):
        ml = Memberlist(SimClock())
        for m in ("a", "b", "c"):
            ml.register(m)
        ml.suspect("b")
        ml.suspect("c")
        ml.declare_dead("c")
        # Writes avoid anything not ACTIVE; reads still try SUSPECT
        # members (they may merely be slow) but skip DEAD ones.
        assert ml.write_excluded() == {"b", "c"}
        assert not ml.read_excluded("b")
        assert ml.read_excluded("c")

    def test_suspect_from_read_is_idempotent(self):
        ml = Memberlist(SimClock())
        ml.register("a")
        assert ml.suspect_from_read("a") is True
        assert ml.suspect_from_read("a") is False  # already suspect
        assert ml.read_triggered_suspects == 1

    def test_snapshot_reports_age(self):
        clock = SimClock()
        ml = Memberlist(clock)
        ml.register("a")
        clock.advance(seconds(7))
        view = ml.snapshot()["a"]
        assert view.state is MemberState.ACTIVE
        assert view.heartbeat_age_seconds == pytest.approx(7.0)


class TestDetectorConfig:
    def test_suspect_threshold_must_exceed_worst_heartbeat_gap(self):
        with pytest.raises(ValidationError):
            FailureDetectorConfig(
                heartbeat_interval_ns=seconds(10),
                suspect_after_ns=seconds(11),
                jitter=0.2,  # worst gap 12s > 11s: would flap
            )

    def test_dead_after_must_exceed_suspect_after(self):
        with pytest.raises(ValidationError):
            FailureDetectorConfig(
                suspect_after_ns=seconds(20), dead_after_ns=seconds(20)
            )

    def test_jitter_range(self):
        with pytest.raises(ValidationError):
            FailureDetectorConfig(jitter=1.0)
        with pytest.raises(ValidationError):
            FailureDetectorConfig(jitter=-0.1)

    def test_max_detection_latency_formula(self):
        cfg = FailureDetectorConfig()
        # Two sweep intervals: one to reach SUSPECT, one more to reach
        # DEAD when both thresholds fall inside the same sweep gap.
        expected = int(
            cfg.heartbeat_interval_ns * (1.0 + cfg.jitter)
            + cfg.dead_after_ns
            + 2 * cfg.sweep_interval_ns
        )
        assert cfg.max_detection_latency_ns == expected


class TestDetection:
    def test_healthy_cluster_never_flaps(self):
        clock, _, memberlist, detector = make_detector()
        clock.every(detector.config.sweep_interval_ns, detector.sweep)
        clock.advance(minutes(10))
        assert memberlist.suspects_total == 0
        assert memberlist.in_state(MemberState.ACTIVE) == memberlist.members()
        assert memberlist.heartbeats_total > 0

    def test_crashed_member_declared_dead_within_bound(self):
        clock, cluster, memberlist, detector = make_detector()
        clock.every(detector.config.sweep_interval_ns, detector.sweep)
        clock.advance(seconds(12))
        silent_at = clock.now_ns
        cluster.crash_ingester("ingester-2")
        clock.advance(2 * detector.config.max_detection_latency_ns)
        assert memberlist.state_of("ingester-2") is MemberState.DEAD
        detected = detector.detected_dead_at_ns["ingester-2"]
        assert detected - silent_at <= detector.config.max_detection_latency_ns
        # Only the crashed member was demoted.
        assert memberlist.suspects_total == 1
        assert memberlist.deaths_total == 1

    def test_gray_failure_detected_while_process_still_serves(self):
        """HEARTBEAT_LOSS: heartbeats muted, process alive — the
        detector must still walk the member to DEAD."""
        clock, cluster, memberlist, detector = make_detector()
        clock.every(detector.config.sweep_interval_ns, detector.sweep)
        detector.mute("ingester-1")
        clock.advance(2 * detector.config.max_detection_latency_ns)
        assert memberlist.state_of("ingester-1") is MemberState.DEAD
        assert cluster.ingesters["ingester-1"].active  # gray, not crashed

    def test_unmute_recovers_member(self):
        clock, _, memberlist, detector = make_detector()
        clock.every(detector.config.sweep_interval_ns, detector.sweep)
        detector.mute("ingester-1")
        clock.advance(seconds(25))
        assert memberlist.state_of("ingester-1") is MemberState.SUSPECT
        detector.unmute("ingester-1")
        clock.advance(seconds(10))
        assert memberlist.state_of("ingester-1") is MemberState.ACTIVE
        assert memberlist.recoveries_total == 1

    def test_restarted_member_recovers_via_heartbeat(self):
        clock, cluster, memberlist, detector = make_detector()
        clock.every(detector.config.sweep_interval_ns, detector.sweep)
        cluster.crash_ingester("ingester-0")
        clock.advance(2 * detector.config.max_detection_latency_ns)
        assert memberlist.state_of("ingester-0") is MemberState.DEAD
        cluster.restart_ingester("ingester-0")
        clock.advance(seconds(10))  # next heartbeat tick stamps liveness
        assert memberlist.state_of("ingester-0") is MemberState.ACTIVE

    def test_watch_covers_late_joined_member(self):
        clock, cluster, memberlist, detector = make_detector()
        clock.every(detector.config.sweep_interval_ns, detector.sweep)
        clock.advance(seconds(10))
        cluster.join_ingester("ingester-9")
        memberlist.register("ingester-9")
        detector.watch("ingester-9")
        clock.advance(minutes(2))
        assert memberlist.state_of("ingester-9") is MemberState.ACTIVE

    def test_detection_is_deterministic(self):
        """Same topology, same crash time → bit-identical transition
        timestamps across runs (seeded jitter, sim clock)."""

        def run():
            clock, cluster, memberlist, detector = make_detector()
            clock.every(detector.config.sweep_interval_ns, detector.sweep)
            clock.advance(seconds(12))
            cluster.crash_ingester("ingester-2")
            clock.advance(minutes(3))
            return (
                detector.detected_dead_at_ns["ingester-2"],
                memberlist.heartbeats_total,
            )

        assert run() == run()
