"""The replicated ingest ring as a framework plane (DESIGN §8, §16):
everything ``enable_ingest_ring`` wires into the pipeline."""

from __future__ import annotations

from repro.alerting.rules import RULE_FOR, RuleSpec
from repro.cluster.faults import FaultKind
from repro.common.errors import ValidationError
from repro.core.plane import Plane
from repro.exporters.ring_exporter import RingExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.ring.cluster import RingLokiCluster
from repro.ring.distributor import REPLICATION_FACTOR


def register_faults(injector, ring):
    """Faults against the monitoring pipeline itself; targets are
    ingester ids."""

    def crash(fault):
        ring.crash_ingester(fault.target)

        def restart():
            # Fault end = the operator restarts the process; WAL replay
            # recovers every acknowledged entry the replica held.
            fault.detail["replayed"] = ring.restart_ingester(fault.target)

        return restart

    def bounce(fault):
        # The process restarts immediately, rebuilding its store from the
        # checkpoint + WAL before serving again: nothing to undo.
        ingester = ring.ingesters.get(fault.target)
        if ingester is not None and ingester.active:
            ingester.crash()
        fault.detail["replayed"] = ring.restart_ingester(fault.target)

    injector.register(FaultKind.INGESTER_CRASH, crash)
    injector.register(FaultKind.INGESTER_RESTART, bounce)


class RingPlane(Plane):
    name = "ring"
    flag = "enable_ingest_ring"
    components = ("ring", "ring_exporter")
    scrape_targets = (("loki-ring", "ring-exporter:9102", "ring_exporter"),)

    def validate(self, cfg):
        if cfg.ring_ingesters < REPLICATION_FACTOR:
            raise ValidationError(
                f"ring_ingesters must be >= {REPLICATION_FACTOR}, "
                "the replication factor"
            )
        if not 0 <= cfg.ring_zones <= cfg.ring_ingesters:
            raise ValidationError(
                "ring_zones must be in [0, ring_ingesters]"
            )

    def build_stores(self, fw):
        cfg = fw.config
        fw.ring = RingLokiCluster(
            ingesters=cfg.ring_ingesters,
            tracer=fw.tracer,
            shard_size=(
                cfg.tenant_shard_size if cfg.enable_multi_tenancy else 0
            ),
            zones=cfg.ring_zones,
        )
        fw.log_backend = fw.ring
        fw.ring_exporter = RingExporter(fw.ring)
        register_faults(fw.faults, fw.ring)

    def install_rules(self, fw):
        distributor = fw.ring.distributor
        fw.vmalert.add_rule(
            RuleSpec(
                name="IngesterDown",
                expr="loki_ring_ingester_up == 0",
                for_=RULE_FOR,
                labels={"severity": "warning", "category": "pipeline"},
                annotations={
                    "summary": "Loki ingester {{ $labels.ingester }} is "
                    "down; writes continue at quorum "
                    f"{distributor.write_quorum}/"
                    f"{distributor.replication_factor}"
                },
            )
        )

    def dashboards(self, fw):
        rows = [
            (StatPanel, "Ingesters up", "sum(loki_ring_ingester_up)"),
            (
                TopListPanel,
                "Entries per ingester",
                "topk(16, loki_ring_ingester_entries_total)",
                {"label": "ingester"},
            ),
            (
                TimeSeriesPanel,
                "Distributor quorum failures",
                "loki_distributor_quorum_failures_total",
            ),
            (StatPanel, "WAL segments awaiting checkpoint", "sum(loki_ring_wal_segments)"),
            (
                StatPanel,
                "Records recovered by WAL replay",
                "sum(loki_ring_wal_replayed_records_total)",
            ),
        ]
        return [("ring", "Ingest Ring", rows)]
