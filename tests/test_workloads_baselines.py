"""Tests for workload generators and comparison baselines."""

import json

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import minutes, seconds
from repro.common.xname import XName
from repro.baselines.fulltext import FullTextLogStore
from repro.baselines.grepstore import GrepLogStore
from repro.baselines.manual import ManualMonitoringModel
from repro.workloads.loggen import ContainerLogGenerator, SyslogGenerator
from repro.workloads.scenarios import alert_storm, steady_state_mix

NODES = [XName.parse(f"x1c0s{s}b0n0") for s in range(4)]


class TestSyslogGenerator:
    def test_count_and_spacing(self):
        logs = SyslogGenerator(NODES, seed=0).generate(100, 0, seconds(1))
        assert len(logs) == 100
        assert logs[10].timestamp_ns == seconds(10)

    def test_deterministic(self):
        a = SyslogGenerator(NODES, seed=3).generate(50, 0, 1)
        b = SyslogGenerator(NODES, seed=3).generate(50, 0, 1)
        assert [x.line for x in a] == [x.line for x in b]

    def test_labels_present(self):
        (log,) = SyslogGenerator(NODES, seed=0).generate(1, 0, 1)
        assert set(log.labels) == {
            "cluster", "data_type", "hostname", "facility", "severity",
        }
        assert log.labels["data_type"] == "syslog"
        assert log.labels["hostname"] in {str(x) for x in NODES}

    def test_severity_mix_realistic(self):
        logs = SyslogGenerator(NODES, seed=1).generate(2000, 0, 1)
        infos = sum(1 for g in logs if g.labels["severity"] == "info")
        crits = sum(1 for g in logs if g.labels["severity"] == "crit")
        assert infos > 1000  # info dominates
        assert 0 < crits < 100  # crit rare but present

    def test_requires_nodes(self):
        with pytest.raises(ValidationError):
            SyslogGenerator([])

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            SyslogGenerator(NODES).generate(-1, 0, 1)


class TestContainerLogGenerator:
    def test_lines_are_json(self):
        logs = ContainerLogGenerator(seed=0).generate(20, 0, 1)
        for g in logs:
            payload = json.loads(g.line)
            assert "level" in payload and "msg" in payload
            assert g.labels["data_type"] == "container_log"

    def test_error_lines_have_retries(self):
        logs = ContainerLogGenerator(seed=0).generate(500, 0, 1)
        errors = [json.loads(g.line) for g in logs if '"level":"error"' in g.line.replace(" ", "")]
        errors = [e for e in errors if e["level"] == "error"]
        assert errors and all("retries" in e for e in errors)


class TestScenarios:
    def test_steady_state_mix_sorted_and_split(self):
        logs = steady_state_mix(NODES, 100, 0, minutes(10), syslog_fraction=0.7)
        assert len(logs) == 100
        ts = [g.timestamp_ns for g in logs]
        assert ts == sorted(ts)
        syslogs = sum(1 for g in logs if g.labels["data_type"] == "syslog")
        assert syslogs == 70

    def test_alert_storm_shape(self):
        xnames = [XName.parse(f"x1c0r{i}b0") for i in range(5)]
        logs = alert_storm(xnames, events_per_target=3, start_ns=0)
        assert len(logs) == 15
        assert all("fm_switch_offline" in g.line for g in logs)

    def test_alert_storm_validation(self):
        with pytest.raises(ValidationError):
            alert_storm([XName.parse("x1c0r0b0")], 0, 0)


class TestFullTextStore:
    @pytest.fixture
    def store(self):
        s = FullTextLogStore()
        s.ingest({"app": "a"}, 1, "error: disk full on nvme0")
        s.ingest({"app": "b"}, 2, "job 123 completed ok")
        s.ingest({"app": "a"}, 3, "error: network unreachable")
        return s

    def test_token_search(self, store):
        hits = store.search(["error"])
        assert len(hits) == 2

    def test_and_semantics(self, store):
        assert len(store.search(["error", "disk"])) == 1

    def test_case_insensitive(self, store):
        assert len(store.search(["ERROR"])) == 2

    def test_label_filter(self, store):
        assert len(store.search(["error"], label_equals={"app": "a"})) == 2
        assert len(store.search(["completed"], label_equals={"app": "a"})) == 0

    def test_time_window(self, store):
        assert len(store.search(["error"], start_ns=2)) == 1

    def test_missing_token_empty(self, store):
        assert store.search(["zzzznothere"]) == []

    def test_empty_query_rejected(self, store):
        with pytest.raises(ValidationError):
            store.search([])

    def test_index_much_larger_than_label_index(self):
        """The C3 claim at unit scale: full-text index >> content size ratio
        of Loki's label-only index."""
        ft = FullTextLogStore()
        for i in range(200):
            ft.ingest({"app": "x"}, i, f"unique tokens here alpha{i} beta{i}")
        assert ft.unique_tokens() > 400
        assert ft.index_bytes() > 50 * ft.doc_count()


class TestGrepStore:
    def test_scan(self):
        s = GrepLogStore()
        s.ingest({"a": "1"}, 0, "needle in haystack")
        s.ingest({"a": "2"}, 1, "just hay")
        assert len(s.grep("needle")) == 1
        assert s.index_bytes() == 0

    def test_label_and_time_filters(self):
        s = GrepLogStore()
        s.ingest({"a": "1"}, 0, "x")
        s.ingest({"a": "2"}, 5, "x")
        assert len(s.grep("x", label_equals={"a": "2"})) == 1
        assert len(s.grep("x", start_ns=1)) == 1


class TestManualModel:
    def test_detection_after_fault(self):
        model = ManualMonitoringModel(scan_interval_ns=minutes(30), seed=0)
        t = model.detection_time_ns(fault_ns=minutes(100), background_rate_per_s=10)
        assert t > minutes(100)

    def test_mean_latency_scales_with_scan_interval(self):
        fast = ManualMonitoringModel(scan_interval_ns=minutes(5), seed=1)
        slow = ManualMonitoringModel(scan_interval_ns=minutes(60), seed=1)
        assert (
            slow.mean_detection_latency_ns(10.0, trials=100)
            > fast.mean_detection_latency_ns(10.0, trials=100)
        )

    def test_higher_background_rate_slower_detection(self):
        model_lo = ManualMonitoringModel(seed=2)
        model_hi = ManualMonitoringModel(seed=2)
        lo = model_lo.mean_detection_latency_ns(1.0, trials=100)
        hi = model_hi.mean_detection_latency_ns(1000.0, trials=100)
        assert hi > lo

    def test_validation(self):
        with pytest.raises(ValidationError):
            ManualMonitoringModel(scan_interval_ns=0)
        with pytest.raises(ValidationError):
            ManualMonitoringModel().detection_time_ns(0, -1.0)
        with pytest.raises(ValidationError):
            ManualMonitoringModel().mean_detection_latency_ns(1.0, trials=0)
