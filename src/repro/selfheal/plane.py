"""Self-healing as a framework plane (DESIGN §13, §16): everything
``enable_self_healing`` wires around the ingest ring."""

from __future__ import annotations

from repro.alerting.rules import RuleSpec
from repro.cluster.faults import FaultKind
from repro.core.plane import Plane
from repro.exporters.selfheal_exporter import SelfHealExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.selfheal.manager import SelfHealManager


def register_faults(injector, manager):
    """HEARTBEAT_LOSS (target: an ingester id) and ZONE_OUTAGE (a zone
    name), plus the one declared replacement of another plane's handler:
    under a self-healing loop a ring member's crash is not the ring's
    alone to undo."""
    ring = manager.cluster

    def crash(fault):
        member = fault.target
        ring.crash_ingester(member)
        if fault.end_ns is None:
            # Open-ended: the supervisor's to restart, or the operator's.
            restart = ring.restart_ingester
        else:
            # A crash with a declared duration is a *bounded* outage:
            # the fault's own end is the recovery, so the self-healing
            # loop must neither restart it early nor re-home its data.
            manager.begin_bounded_crash(member)
            restart = manager.end_bounded_crash

        def end():
            fault.detail["replayed"] = restart(member)

        return end

    def heartbeat_loss(fault):
        member, detail = fault.target, fault.detail
        manager.begin_heartbeat_loss(member)
        if detail.get("permanent", False):
            # The node behind the gray failure is actually gone:
            # restarts will never answer, so the supervisor stands
            # aside and the repair path takes over after detection.
            manager.mark_unrecoverable(member)
        # Ground truth for the chaos tests: detector state before the
        # silence began, and after it ended.
        detail["deaths_at_start"] = manager.memberlist.deaths_total
        detail["repairs_at_start"] = manager.repairer.members_repaired_total

        def end():
            manager.end_heartbeat_loss(member)
            detail["deaths_at_end"] = manager.memberlist.deaths_total
            detail["repairs_at_end"] = manager.repairer.members_repaired_total

        return end

    def zone_outage(fault):
        zone, detail = fault.target, fault.detail
        detail["members_downed"] = manager.begin_zone_outage(zone)
        detail["restarts_at_start"] = manager.supervisor.restarts_total

        def end():
            manager.end_zone_outage(zone)
            detail["restarts_at_end"] = manager.supervisor.restarts_total

        return end

    injector.register(FaultKind.INGESTER_CRASH, crash, replace=True)
    injector.register(FaultKind.HEARTBEAT_LOSS, heartbeat_loss)
    injector.register(FaultKind.ZONE_OUTAGE, zone_outage)


class SelfHealPlane(Plane):
    name = "selfheal"
    flag = "enable_self_healing"
    components = ("selfheal", "selfheal_exporter")
    scrape_targets = (("selfheal", "selfheal-exporter:9107", "selfheal_exporter"),)

    def enabled(self, cfg):
        # Self-healing needs something to heal: with the ring off the
        # flag is a no-op, so CI's REPRO_SELF_HEAL leg can run the
        # whole suite (ring-less tests included) unmodified.
        return cfg.enable_self_healing and cfg.enable_ingest_ring

    def build_stores(self, fw):
        fw.selfheal = SelfHealManager(fw.clock, fw.ring, tracer=fw.tracer)
        fw.selfheal_exporter = SelfHealExporter(fw.selfheal)
        register_faults(fw.faults, fw.selfheal)

    def install_rules(self, fw):
        fw.vmalert.add_rule(
            RuleSpec(
                name="IngesterSuspect",
                # One-hot lifecycle gauge from the ring exporter; no
                # sustain window — suspicion is itself the sustained
                # condition (heartbeats already stale for
                # suspect_after), and the state may progress to DEAD
                # before a second evaluation.
                expr='ring_member_state{state="suspect"} > 0',
                for_="0s",
                labels={"severity": "warning", "category": "pipeline"},
                annotations={
                    "summary": "Ingester {{ $labels.ingester }} "
                    "heartbeats have gone stale; writes are routing "
                    "around it"
                },
            )
        )
        fw.vmalert.add_rule(
            RuleSpec(
                name="UnderReplicatedStreams",
                # A live placement diff: fires while redundancy is
                # genuinely lost, self-resolves the scrape after the
                # repairer (or a restart + WAL replay) closes the gap.
                expr="selfheal_under_replicated_streams > 0",
                for_="0s",
                labels={"severity": "critical", "category": "pipeline"},
                annotations={
                    "summary": "{{ $value }} streams are missing "
                    "replicas; anti-entropy repair is pending"
                },
            )
        )

    def dashboards(self, fw):
        rows = [
            (TimeSeriesPanel, "Members by lifecycle state", "selfheal_members"),
            (
                TopListPanel,
                "Heartbeat age per member",
                "topk(16, ring_member_heartbeat_age_seconds)",
                {"label": "ingester", "unit": " s"},
            ),
            (
                TimeSeriesPanel,
                "Under-replicated streams (alert signal)",
                "selfheal_under_replicated_streams",
            ),
            (StatPanel, "Members retired by repair", "sum(selfheal_members_repaired_total)"),
            (StatPanel, "Entries re-replicated", "sum(selfheal_entries_copied_total)"),
            (
                TimeSeriesPanel,
                "Supervisor restarts / WAL replays",
                "selfheal_supervisor_restarts_total",
            ),
            (TimeSeriesPanel, "Lifecycle transitions by kind", "selfheal_transitions_total"),
        ]
        return [("selfheal", "Self-Healing", rows)]

    def jobs(self, fw):
        return fw.selfheal.jobs()

    def health(self, fw):
        return {
            f"selfheal_{key}": value
            for key, value in fw.selfheal.health_summary().items()
        }
