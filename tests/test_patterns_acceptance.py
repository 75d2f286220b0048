"""Pattern mining inside the assembled framework (ISSUE 9).

The acceptance criteria, end to end: with ``enable_pattern_mining`` on,
an injected LOG_STORM fault collapses into ONE grouped notification
(≥ 50× fewer notifications than per-line alerting would send), an
injected NOVEL_ERROR fault raises ``NovelErrorPattern`` within the
ruler's evaluation interval (plus group_wait for the notification), and
the query path (``detected_patterns`` via engine and logcli),
exporter, dashboard and health summary all surface the mined templates.
"""

import pytest

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.errors import QueryError
from repro.common.simclock import minutes
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.loki.logcli import run_logcli
from repro.patterns.plane import RULER_INTERVAL_NS

REDUCTION_TARGET = 50.0


def patterns_config(**overrides):
    return FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
        enable_pattern_mining=True,
        **overrides,
    )


def storm_world():
    """A framework with a 10-minute 100-lines/s storm injected."""
    fw = MonitoringFramework(patterns_config())
    fw.run_for(minutes(2))  # steady state first
    fault = fw.faults.schedule(
        FaultKind.LOG_STORM, "gpudriver", duration_ns=minutes(10)
    )
    fw.run_for(minutes(12))  # storm + quiet tail to self-resolve
    return fw, fault


class TestConfig:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PATTERNS", raising=False)
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2)
            )
        )
        assert fw.pattern_ingester is None
        assert fw.pattern_ruler is None
        assert "patterns" not in fw.dashboards

    def test_env_flag_flips_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PATTERNS", "1")
        assert FrameworkConfig().enable_pattern_mining


class TestStormSuppression:
    def test_storm_collapses_to_grouped_notifications(self):
        fw, fault = storm_world()
        lines = int(fault.detail["lines_injected"])
        assert lines >= 50_000  # ~600 ticks x 100 lines

        storm_notifications = [
            m for m in fw.slack.messages if "PatternBurst" in m.text
        ]
        # Per-line alerting would have sent one notification per line;
        # pattern grouping sends a handful for the whole storm.
        assert storm_notifications
        reduction = lines / len(storm_notifications)
        assert reduction >= REDUCTION_TARGET
        # The storm registered as exactly one burst edge on the ruler.
        assert fw.pattern_ruler.bursts_detected == 1

    def test_burst_self_resolves_after_storm(self):
        fw, _ = storm_world()
        assert fw.pattern_ruler.active_bursts == 0
        assert not fw.pattern_ruler.firing_series()
        resolved = [
            m
            for m in fw.slack.messages
            if "PatternBurst" in m.text and "RESOLVED" in m.text.upper()
        ]
        assert resolved

    def test_storm_lines_are_one_template(self):
        fw, fault = storm_world()
        rows = fw.logql.detected_patterns(
            '{app="gpudriver"}', 0, fw.clock.now_ns
        )
        assert len(rows) == 1
        assert rows[0].count == int(fault.detail["lines_injected"])
        assert "I/O error on dev sda, sector <*>" in rows[0].template


class TestNovelErrorDetection:
    def test_novel_error_raises_critical_within_bound(self):
        cfg = patterns_config()
        fw = MonitoringFramework(cfg)
        fw.run_for(minutes(2))
        fault = fw.faults.schedule(FaultKind.NOVEL_ERROR, "gpudriver")
        fw.run_for(minutes(2))

        detections = fw.pattern_ruler.novel_detections
        assert len(detections) >= 1
        injected = int(fault.detail["injected_at_ns"])
        mine = [d for d in detections if d.first_seen_ns >= injected]
        assert mine
        # Documented detection bound: one ruler evaluation interval.
        assert mine[0].latency_ns <= RULER_INTERVAL_NS

        fired = [
            m for m in fw.slack.messages if "NovelErrorPattern" in m.text
        ]
        assert fired
        # Critical severity also funnels into a ServiceNow incident.
        incidents = [
            i
            for i in fw.servicenow.incidents()
            if "NovelErrorPattern" in i.short_description
        ]
        assert incidents

    def test_repeat_of_known_template_is_not_novel(self):
        fw = MonitoringFramework(patterns_config())
        fw.run_for(minutes(2))
        fw.faults.schedule(FaultKind.NOVEL_ERROR, "gpudriver", marker="qzx")
        fw.run_for(minutes(2))
        before = fw.pattern_ruler.novel_detected
        fw.faults.schedule(FaultKind.NOVEL_ERROR, "gpudriver", marker="qzx")
        fw.run_for(minutes(2))
        assert fw.pattern_ruler.novel_detected == before


class TestQueryPath:
    def test_logcli_patterns_flag(self):
        fw, _ = storm_world()
        out = run_logcli(
            fw.warehouse.loki,
            ["query", '{app="gpudriver"}', "--from", "0",
             "--to", str(fw.clock.now_ns), "--patterns"],
            patterns=fw.pattern_store,
        )
        assert "PATTERN_ID" in out
        assert "I/O error on dev sda, sector <*>" in out

    def test_detected_patterns_disabled_is_query_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_PATTERNS", raising=False)
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2)
            )
        )
        with pytest.raises(QueryError):
            fw.logql.detected_patterns('{app="x"}', 0, 10)


class TestObservability:
    def test_exporter_scrapes_pattern_metrics(self):
        fw, _ = storm_world()
        text = fw.patterns_exporter.scrape().text()
        assert "patterns_lines_mined_total" in text
        assert "patterns_compression_ratio" in text
        assert "patterns_bursts_detected_total 1" in text
        # The exporter is wired into vmagent: series land in the TSDB.
        samples = fw.promql.query_instant(
            "patterns_templates", fw.clock.now_ns
        )
        assert samples and samples[0].value > 0

    def test_dashboard_present(self):
        fw = MonitoringFramework(patterns_config())
        dash = fw.dashboards["patterns"]
        titles = [p.title for p in dash.panels()]
        assert "Distinct templates" in titles
        assert any("Busiest templates" in t for t in titles)

    def test_health_summary_keys(self):
        fw, _ = storm_world()
        summary = fw.health_summary()
        assert summary["patterns_distinct_templates"] > 0
        assert summary["patterns_lines_mined"] >= 50_000
        assert summary["patterns_compression_ratio"] > 100
        assert summary["patterns_bursts_detected"] == 1

    def test_tempo_spans_for_miner_and_ruler(self):
        fw = MonitoringFramework(patterns_config(tracing_sampling=1.0))
        fw.run_for(minutes(2))
        fw.faults.schedule(FaultKind.LOG_STORM, "gpudriver",
                           duration_ns=minutes(2))
        fw.run_for(minutes(3))
        services = set()
        for trace_id in fw.traces.trace_ids():
            services |= fw.traces.services(trace_id)
        assert "patterns" in services
        assert "pattern-ruler" in services

    def test_pattern_blocks_persist_to_object_store(self):
        fw = MonitoringFramework(
            patterns_config(enable_object_storage=True)
        )
        fw.run_for(minutes(2))
        fw.faults.schedule(FaultKind.LOG_STORM, "gpudriver",
                           duration_ns=minutes(2))
        fw.run_for(minutes(10))
        assert fw.objstore.object_count(prefix="patterns/") >= 1
        assert fw.pattern_store.blocks_persisted >= 1
