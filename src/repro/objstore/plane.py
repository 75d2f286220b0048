"""Tiered object storage as a framework plane (DESIGN §11, §16):
everything ``enable_object_storage`` wires under the log backend."""

from __future__ import annotations

from repro.alerting.rules import RULE_FOR, RuleSpec
from repro.cluster.faults import FaultKind
from repro.common.simclock import Job
from repro.core.plane import Plane
from repro.exporters.objstore_exporter import ObjstoreExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel
from repro.objstore.compactor import Compactor
from repro.objstore.gateway import StoreGateway
from repro.objstore.index import ShipperIndex
from repro.objstore.objectstore import ObjectStore
from repro.objstore.shipper import ChunkShipper
from repro.objstore.tiered import TieredLokiStore


def register_faults(injector, store, shipper):
    """The backend goes dark (every request refused, flushes stall
    resident) or degrades (accounted latencies multiplied); the target
    is the backend's name."""

    def outage(fault):
        detail = fault.detail
        store.set_outage(True)
        # Ground truth: how many flushes had failed before the outage,
        # so chaos tests can count failures *during* it.
        start = detail["flush_failures_at_start"] = shipper.flush_failures

        def end():
            store.set_outage(False)
            detail["flush_failures_at_end"] = shipper.flush_failures
            detail["flush_failures_during"] = shipper.flush_failures - start

        return end

    def slow(fault):
        store.set_slowdown(float(fault.detail.get("factor", 10.0)))
        return lambda: store.set_slowdown(1.0)

    injector.register(FaultKind.OBJSTORE_OUTAGE, outage)
    injector.register(FaultKind.OBJSTORE_SLOW, slow)


class ObjstorePlane(Plane):
    name = "objstore"
    flag = "enable_object_storage"
    components = (
        "objstore", "shipper_index", "shipper", "compactor", "store_gateway",
        "tiered", "objstore_exporter",
    )
    scrape_targets = (("objstore", "objstore-exporter:9105", "objstore_exporter"),)

    def build_stores(self, fw):
        # Tiered cold storage wraps whatever hot tier is in place — the
        # ring when it is on, the plain LokiStore otherwise — so on top
        # of the ring it is replicated hot ingest *and* deduplicated flush.
        hot = fw.log_backend
        fw.objstore = ObjectStore(fw.clock)
        fw.shipper_index = ShipperIndex(fw.objstore)
        fw.shipper = ChunkShipper(
            hot, fw.objstore, fw.shipper_index, fw.clock,
            tracer=fw.tracer,
        )
        fw.compactor = Compactor(
            fw.objstore, fw.shipper_index, fw.clock, tracer=fw.tracer
        )
        fw.store_gateway = StoreGateway(
            fw.objstore, fw.shipper_index, fw.clock,
            tracer=fw.tracer,
        )
        fw.tiered = TieredLokiStore(
            hot, fw.objstore, fw.shipper_index, fw.shipper,
            fw.compactor, fw.store_gateway,
        )
        fw.log_backend = fw.tiered
        fw.objstore_exporter = ObjstoreExporter(
            fw.objstore,
            fw.shipper_index,
            fw.shipper,
            compactor=fw.compactor,
            gateway=fw.store_gateway,
        )
        register_faults(fw.faults, fw.objstore, fw.shipper)

    def install_rules(self, fw):
        fw.vmalert.add_rule(
            RuleSpec(
                name="ObjstoreFlushStalled",
                expr="objstore_flush_failures_consecutive > 0",
                for_=RULE_FOR,
                labels={"severity": "warning", "category": "storage"},
                annotations={
                    "summary": "{{ $value }} consecutive chunk flushes "
                    "to object storage have failed; ingester memory is "
                    "not draining"
                },
            )
        )

    def dashboards(self, fw):
        rows = [
            (StatPanel, "Cold chunk objects", 'sum(objstore_objects{kind="chunk"})'),
            (TimeSeriesPanel, "Bucket bytes by kind", "objstore_bytes"),
            (
                TimeSeriesPanel,
                "Consecutive flush failures (alert signal)",
                "objstore_flush_failures_consecutive",
            ),
            (StatPanel, "Replica dedup ratio", "objstore_dedup_ratio"),
            (
                TimeSeriesPanel,
                "Resident bytes freed by flushes",
                'objstore_flush_bytes_total{kind="freed"}',
            ),
            (
                TimeSeriesPanel,
                "Store-gateway cold-read latency",
                "objstore_gateway_last_query_seconds",
            ),
        ]
        return [("objstore", "Object Storage", rows)]

    def jobs(self, fw):
        cfg = fw.config
        return [
            Job("objstore.flush", cfg.objstore_flush_interval_ns, fw.shipper.flush),
            Job("objstore.compact", cfg.objstore_compaction_interval_ns, fw.compactor.run),
        ]

    def health(self, fw):
        ship = fw.shipper.counters()
        return {
            "objstore_chunks_shipped": float(ship["chunks_shipped"]),
            "objstore_chunks_deduped": float(ship["chunks_deduped"]),
            "objstore_flush_failures": float(ship["flush_failures"]),
            "objstore_cold_chunks": float(fw.tiered.cold_chunk_count()),
            "objstore_cold_bytes": float(fw.tiered.cold_bytes()),
        }
