"""Self-healing as a framework plane (DESIGN §13, §16): everything
``enable_self_healing`` wires around the ingest ring."""

from __future__ import annotations

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane
from repro.exporters.selfheal_exporter import SelfHealExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.selfheal.detector import FailureDetectorConfig
from repro.selfheal.manager import SelfHealConfig, SelfHealManager
from repro.selfheal.repairer import RingRepairerConfig
from repro.selfheal.supervisor import SupervisorConfig


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

    def validate(self, cfg):
        # The FailureDetectorConfig/RingRepairerConfig constructors
        # validate the relationships (suspect_after vs heartbeat gap,
        # dead_after vs suspect_after); here the signs no cadence loop has.
        for name in ("selfheal_suspect_after_ns", "selfheal_dead_after_ns"):
            if getattr(cfg, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if cfg.selfheal_repair_grace_ns < 0:
            raise ValidationError("selfheal_repair_grace_ns must be >= 0")

    def build_stores(self, fw):
        cfg = fw.config
        fw.selfheal = SelfHealManager(
            fw.clock,
            fw.ring,
            SelfHealConfig(
                detector=FailureDetectorConfig(
                    heartbeat_interval_ns=cfg.selfheal_heartbeat_interval_ns,
                    suspect_after_ns=cfg.selfheal_suspect_after_ns,
                    dead_after_ns=cfg.selfheal_dead_after_ns,
                    sweep_interval_ns=cfg.selfheal_sweep_interval_ns,
                ),
                repairer=RingRepairerConfig(
                    grace_ns=cfg.selfheal_repair_grace_ns,
                    sweep_interval_ns=cfg.selfheal_repair_interval_ns,
                ),
                supervisor=SupervisorConfig(
                    sweep_interval_ns=cfg.selfheal_supervisor_interval_ns,
                ),
            ),
            tracer=fw.tracer,
        )
        fw.selfheal_exporter = SelfHealExporter(fw.selfheal)
        fw.faults.attach_selfheal(fw.selfheal)

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

    def start(self, fw):
        fw.selfheal.start()

    def health(self, fw):
        return {
            f"selfheal_{key}": value
            for key, value in fw.selfheal.health_summary().items()
        }
