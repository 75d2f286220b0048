"""Deterministic chaos acceptance for the self-healing loop.

The headline scenario the subsystem exists for: at RF=3, an ingester is
lost *uncleanly and permanently* (gray failure — its heartbeats vanish
while the process is never restarted), and without operator action the
stack detects it, routes writes around it, re-replicates its streams,
retires it, and the whole time loses **zero acknowledged entries**.  The
``UnderReplicatedStreams`` alert fires while redundancy is genuinely
lost and self-resolves once repair closes the gap.
"""

import pytest

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.loki.model import LogEntry
from repro.selfheal.detector import FailureDetectorConfig
from repro.selfheal.memberlist import MemberState
from repro.selfheal.repairer import RingRepairerConfig

MATCH_ALL = [label_matcher("app", "=~", ".+")]


def heal_framework(**overrides):
    """Timings widened so the 60s scrape / 30s vmalert cadence reliably
    samples both the SUSPECT window and the under-replicated window.
    The sweeps read them, so they are set before ``start()``."""
    defaults = dict(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
        enable_ingest_ring=True,
        enable_self_healing=True,
        ring_ingesters=6,
        ring_zones=3,
    )
    defaults.update(overrides)
    fw = MonitoringFramework(FrameworkConfig(**defaults))
    if fw.selfheal is not None:
        fw.selfheal.detector.config = FailureDetectorConfig(
            dead_after_ns=seconds(90)
        )
        fw.selfheal.repairer.config = RingRepairerConfig(grace_ns=seconds(120))
    return fw


def feed(fw, streams=20, entries=10):
    base = fw.clock.now_ns
    expected = {}
    for i in range(streams):
        labels = LabelSet({"app": f"svc-{i:02d}"})
        rows = [
            LogEntry(base + seconds(j + 1), f"s{i:02d}-line-{j:04d}")
            for j in range(entries)
        ]
        fw.ring.push_stream(labels, rows)
        expected[labels] = rows
    return expected


def read_all(fw):
    return {
        labels: entries
        for labels, entries in fw.ring.select(MATCH_ALL, 0, 2**63 - 1)
    }


def victim_with_streams(fw):
    return max(
        fw.ring.ingesters,
        key=lambda m: len(fw.ring.ingesters[m].stream_inventory()),
    )


class TestUncleanPermanentLoss:
    def test_detect_repair_zero_loss_alert_lifecycle(self):
        fw = heal_framework()
        fw.start()
        fw.run_for(seconds(30))
        expected = feed(fw)
        victim = victim_with_streams(fw)
        # Gray failure, never restarted: heartbeats vanish while the
        # process keeps serving; the node itself is written off.
        fault = fw.faults.schedule(
            FaultKind.HEARTBEAT_LOSS,
            victim,
            delay_ns=seconds(30),
            permanent=True,
        )
        # Step the sim, recording which rules fire along the way.
        seen_firing = set()
        for _ in range(20):
            fw.run_for(seconds(30))
            seen_firing.update(name for name, _ in fw.vmalert.firing_series())
        # Detection: the victim walked SUSPECT → DEAD within the bound.
        detector = fw.selfheal.detector
        assert victim in detector.detected_dead_at_ns
        latency = detector.detected_dead_at_ns[victim] - fault.start_ns
        assert latency <= detector.config.max_detection_latency_ns
        # Repair: retired, tokens released, redundancy restored.
        assert fw.selfheal.memberlist.state_of(victim) is MemberState.FORGOTTEN
        assert victim not in fw.ring.ingesters
        assert fw.selfheal.repairer.members_repaired_total == 1
        assert fw.selfheal.under_replicated_streams() == 0
        # Zero loss: every acknowledged entry read back exactly once.
        assert read_all(fw) == expected
        # Alert lifecycle: both rules fired during the incident …
        assert "IngesterSuspect" in seen_firing
        assert "UnderReplicatedStreams" in seen_firing
        # … and both self-resolved once repair closed the gap.
        still_firing = {name for name, _ in fw.vmalert.firing_series()}
        assert "IngesterSuspect" not in still_firing
        assert "UnderReplicatedStreams" not in still_firing
        # The incident reached the notification plane.
        assert any("UnderReplicatedStreams" in m.text for m in fw.slack.messages)
        # Ground truth recorded on the fault for the benches.
        assert fault.detail["deaths_at_start"] == 0

    def test_selfheal_spans_traced(self):
        fw = heal_framework(tracing_sampling=1.0)
        fw.start()
        feed(fw)
        victim = victim_with_streams(fw)
        fw.faults.schedule(
            FaultKind.HEARTBEAT_LOSS, victim, delay_ns=seconds(30),
            permanent=True,
        )
        fw.run_for(minutes(8))
        spans = fw.traceql.find_spans('{ span.service = "selfheal" }')
        names = {s.name for s in spans}
        assert {"suspect", "declare_dead", "repair_member"} <= names


class TestZoneOutage:
    def test_bounded_outage_restarts_instead_of_repairing(self):
        fw = heal_framework()
        fw.start()
        fw.run_for(seconds(30))
        expected = feed(fw)
        fault = fw.faults.schedule(
            FaultKind.ZONE_OUTAGE,
            "zone-1",
            delay_ns=seconds(30),
            duration_ns=minutes(4),
        )
        # Mid-outage: the downed members are detected but *held* — a
        # declared zone outage is bounded, so repair would be wasted
        # data movement — and reads stay exact off the survivors
        # (zone-spread placement keeps >= quorum outside any one zone).
        fw.run_for(minutes(3, ) + seconds(30))
        downed = fault.detail["members_downed"]
        assert len(downed) == 2
        for member in downed:
            assert fw.selfheal.memberlist.state_of(member) is MemberState.DEAD
        assert read_all(fw) == expected
        # Post-outage: the supervisor restarted the zone's members (WAL
        # replay); nobody was retired, nothing was re-homed.
        fw.run_for(minutes(4))
        for member in downed:
            assert member in fw.ring.ingesters
            assert fw.ring.ingesters[member].active
            assert (
                fw.selfheal.memberlist.state_of(member) is MemberState.ACTIVE
            )
        assert fw.selfheal.supervisor.restarts_total >= 2
        assert fw.selfheal.repairer.members_repaired_total == 0
        # Repair eligibility *did* come up while the zone was declared
        # down (DEAD past grace) — the holdback is what deferred it.
        assert fw.selfheal.repairer.members_held_back > 0
        assert fw.selfheal.under_replicated_streams() == 0
        assert read_all(fw) == expected

    def test_durationed_ingester_crash_is_a_bounded_outage(self):
        """A crash with a declared duration recovers at the fault's own
        end: the supervisor must not restart it early (the outage is the
        scenario), the repairer must not re-home its data (it is coming
        back with its WAL), and fault end restarts + reactivates it."""
        fw = heal_framework()
        fw.start()
        fw.run_for(seconds(30))
        expected = feed(fw)
        victim = victim_with_streams(fw)
        fault = fw.faults.schedule(
            FaultKind.INGESTER_CRASH,
            victim,
            delay_ns=seconds(30),
            duration_ns=minutes(6),
        )
        fw.run_for(minutes(5))
        # Mid-fault: down, detected, but neither restarted nor retired.
        assert not fw.ring.ingesters[victim].active
        assert fw.selfheal.memberlist.state_of(victim) is MemberState.DEAD
        assert fw.selfheal.supervisor.restarts_total == 0
        assert fw.selfheal.repairer.members_repaired_total == 0
        assert read_all(fw) == expected
        fw.run_for(minutes(3))
        # Fault end restarted it (WAL replay) and snapped it ACTIVE.
        assert fw.ring.ingesters[victim].active
        assert fw.selfheal.memberlist.state_of(victim) is MemberState.ACTIVE
        assert fault.detail["replayed"] > 0
        assert fw.selfheal.repairer.members_repaired_total == 0
        assert read_all(fw) == expected

    def test_every_stream_keeps_a_replica_outside_each_zone(self):
        fw = heal_framework()
        fw.start()
        feed(fw)
        for labels in fw.ring.stream_labels():
            replicas = fw.ring.distributor.replicas_for(labels)
            zones = {fw.ring.ring.zone(m) for m in replicas}
            assert len(zones) == 3


class TestWiring:
    def test_flag_off_means_no_selfheal(self):
        fw = heal_framework(enable_self_healing=False)
        fw.run_for(minutes(1))
        assert fw.selfheal is None
        assert fw.selfheal_exporter is None
        assert "selfheal" not in fw.dashboards

    def test_flag_without_ring_is_a_noop(self):
        """The CI leg exports REPRO_SELF_HEAL=1 and runs the *whole*
        suite: configs without an ingest ring must still build."""
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
                enable_self_healing=True,
            )
        )
        fw.run_for(minutes(1))
        assert fw.selfheal is None

    def test_env_flag_flips_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELF_HEAL", "1")
        assert FrameworkConfig().enable_self_healing
        monkeypatch.setenv("REPRO_SELF_HEAL", "0")
        assert not FrameworkConfig().enable_self_healing

    def test_exporters_and_dashboard_render(self):
        fw = heal_framework()
        fw.start()
        feed(fw)
        victim = victim_with_streams(fw)
        fw.faults.schedule(
            FaultKind.HEARTBEAT_LOSS, victim, delay_ns=seconds(30),
            permanent=True,
        )
        fw.run_for(minutes(8))
        ring_text = fw.ring_exporter.scrape().text()
        assert 'ring_member_state{' in ring_text
        assert "ring_member_heartbeat_age_seconds" in ring_text
        heal_text = fw.selfheal_exporter.scrape().text()
        assert "selfheal_under_replicated_streams" in heal_text
        assert 'selfheal_transitions_total{kind="dead"} 1' in heal_text
        assert "selfheal_members_repaired_total 1" in heal_text
        out = fw.dashboards["selfheal"].render(
            fw.clock.now_ns - minutes(8), fw.clock.now_ns + 1, minutes(1)
        )
        assert "Members by lifecycle state" in out
        summary = fw.health_summary()
        assert summary["selfheal_members_repaired_total"] == 1.0
        assert summary["selfheal_under_replicated_streams"] == 0.0

    def test_ring_health_carries_lifecycle_columns(self):
        fw = heal_framework()
        fw.start()
        fw.run_for(minutes(1))
        health = fw.ring.ring_health()
        for row in health.values():
            assert row["state"] == "active"
            assert row["zone"].startswith("zone-")
            assert row["heartbeat_age_seconds"] >= 0.0

    def test_heartbeat_loss_without_selfheal_rejected(self):
        fw = heal_framework(enable_self_healing=False)
        fw.start()
        with pytest.raises(Exception, match="no handler registered"):
            fw.faults.schedule(FaultKind.HEARTBEAT_LOSS, "ingester-0")
        fw.run_for(minutes(1))
