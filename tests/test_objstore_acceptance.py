"""Tiered object storage inside the assembled framework (ISSUE 6).

The acceptance criteria, end to end: with the tier enabled, logs
ingested through the RF-3 ring flush to the object store (replica dedup,
resident memory measurably drops), the compactor consolidates, and a
query window spanning resident + flushed data returns every entry
exactly once — while the stall alert, dashboard, exporter, chaos faults
and tempo spans all surface the tier's behaviour.
"""

import pytest

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.errors import ValidationError
from repro.common.simclock import hours, minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.loki.chunks import ChunkPolicy


def tier_config(**overrides):
    return FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
        enable_object_storage=True,
        **overrides,
    )


def ingest(fw, n, tag="acc"):
    lines = []
    for i in range(n):
        # Zero-padded so same-timestamp merge order (ts, line) matches
        # insertion order.
        line = f"{tag} event {i:04d} at {fw.clock.now_ns}"
        fw.warehouse.ingest_log(
            {"app": "acceptance", "source": tag}, fw.clock.now_ns, line
        )
        lines.append(line)
    return lines


class TestConfig:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBJECT_STORAGE", raising=False)
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2)
            )
        )
        assert fw.tiered is None and fw.objstore_exporter is None
        assert "objstore" not in fw.dashboards

    def test_env_flag_flips_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBJECT_STORAGE", "1")
        assert FrameworkConfig().enable_object_storage

    def test_validation(self):
        with pytest.raises(ValidationError):
            tier_config(objstore_flush_interval_ns=0)


class TestEndToEnd:
    def test_ring_ingest_flush_compact_query(self):
        """The headline acceptance path: RF-3 ring + cold tier."""
        fw = MonitoringFramework(
            tier_config(
                enable_ingest_ring=True,
                # Small chunks so the corpus spans many flushed chunks.
                objstore_flush_interval_ns=minutes(5),
                objstore_compaction_interval_ns=minutes(30),
            )
        )
        for ingester in fw.ring.ingesters.values():
            ingester.store.policy = ChunkPolicy(
                target_size_bytes=2048, max_age_ns=minutes(10)
            )
        fw.start()

        old_lines = ingest(fw, 800, tag="old")
        resident_peak = fw.warehouse.loki.stored_bytes()
        fw.run_for(hours(1))  # several flush cycles + one compaction
        resident_after = fw.warehouse.loki.stored_bytes()
        recent_lines = ingest(fw, 100, tag="recent")

        # Resident memory measurably dropped: the old corpus (and the
        # pipeline's own log streams) went cold.
        assert fw.tiered.cold_entry_count() >= len(old_lines)
        assert resident_after < resident_peak / 2
        # RF-3 replicas deduplicated cold: ratio exactly (RF-1)/RF.
        assert fw.shipper.chunks_deduped_total == (
            2 * fw.shipper.chunks_shipped_total
        )
        # The compactor ran and consolidated the small flushed objects.
        assert fw.compactor.runs > 0
        assert fw.compactor.chunks_merged_total > 0

        # A window spanning both tiers: zero entries lost, zero
        # duplicates, order preserved.
        logs = fw.logql.query_logs(
            '{app="acceptance"}', 0, fw.clock.now_ns + 1
        )
        got = [e.line for _, entries in logs for e in entries]
        assert got == old_lines + recent_lines

        # Accounting surfaces everywhere the satellites promised.
        summary = fw.health_summary()
        assert summary["objstore_cold_chunks"] > 0
        assert summary["objstore_flush_failures"] == 0
        report = fw.warehouse.storage_report()
        assert report["log_cold_entries"] == fw.tiered.cold_entry_count()
        assert report["log_cold_bytes"] > 0

    def test_single_store_hot_tier_works_too(self):
        fw = MonitoringFramework(tier_config())
        fw.start()
        lines = ingest(fw, 50)
        fw.run_for(hours(3))  # default 2h chunk age, then flush
        assert fw.tiered.cold_entry_count() >= len(lines)
        logs = fw.logql.query_logs('{app="acceptance"}', 0, fw.clock.now_ns)
        assert [e.line for _, entries in logs for e in entries] == lines


class TestObservability:
    def test_exporter_scrapes_into_tsdb(self):
        fw = MonitoringFramework(tier_config(enable_ingest_ring=True))
        fw.start()
        ingest(fw, 50)
        fw.run_for(minutes(10))
        samples = fw.promql.query_instant(
            "objstore_flush_failures_consecutive", fw.clock.now_ns
        )
        assert samples and all(s.value == 0.0 for s in samples)
        assert fw.promql.query_instant("objstore_bytes", fw.clock.now_ns)

    def test_outage_fault_fires_and_resolves_the_stall_alert(self):
        fw = MonitoringFramework(tier_config(enable_ingest_ring=True))
        fw.start()
        ingest(fw, 100)
        fw.run_for(minutes(20))
        assert fw.shipper.flush_failures == 0

        fw.faults.schedule(
            FaultKind.OBJSTORE_OUTAGE, "objstore", duration_ns=minutes(30)
        )
        seen = set()
        for _ in range(8):
            ingest(fw, 20)
            fw.run_for(minutes(5))
            seen |= {a.name for a in fw.alertmanager.active_alerts()}
        assert "ObjstoreFlushStalled" in seen
        assert fw.shipper.flush_failures > 0

        fw.run_for(hours(1))
        active = {a.name for a in fw.alertmanager.active_alerts()}
        assert "ObjstoreFlushStalled" not in active
        assert fw.shipper.consecutive_failures == 0
        # Nothing was lost across the outage: every line reads back.
        logs = fw.logql.query_logs('{app="acceptance"}', 0, fw.clock.now_ns)
        assert sum(len(e) for _, e in logs) == 260

    def test_slow_fault_inflates_cold_read_latency(self):
        fw = MonitoringFramework(tier_config())
        fw.start()
        ingest(fw, 200)
        fw.run_for(hours(3))
        assert fw.tiered.cold_entry_count() >= 200
        fw.logql.query_logs('{app="acceptance"}', 0, fw.clock.now_ns)
        baseline = fw.store_gateway.last_query_latency_ns
        assert baseline > 0

        fault = fw.faults.schedule(
            FaultKind.OBJSTORE_SLOW, "objstore",
            duration_ns=minutes(10), factor=10.0,
        )
        fw.run_for(seconds(1))  # activate
        fw.logql.query_logs('{app="acceptance"}', 0, fw.clock.now_ns)
        assert fw.store_gateway.last_query_latency_ns >= 9 * baseline
        fw.run_for(minutes(15))  # fault ends
        fw.logql.query_logs('{app="acceptance"}', 0, fw.clock.now_ns)
        assert fw.store_gateway.last_query_latency_ns <= 2 * baseline

    def test_tier_movement_is_traced(self):
        fw = MonitoringFramework(
            tier_config(enable_ingest_ring=True, tracing_sampling=1.0)
        )
        fw.start()
        ingest(fw, 100)
        fw.run_for(hours(1))
        fw.logql.query_logs('{app="acceptance"}', 0, fw.clock.now_ns)
        services = {s.service for s in fw.traces.all_spans()}
        assert {"shipper", "compactor", "store-gateway"} <= services
