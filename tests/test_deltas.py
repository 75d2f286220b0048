"""Tests for the shared since-last-scrape delta helper."""

import pytest

from repro.exporters.deltas import RecentDelta
from tests.tracing import off_tracer


class TestRecentDelta:
    def test_first_observation_baselines_at_zero(self):
        d = RecentDelta()
        assert d.observe("t1", 7) == 7.0

    def test_quiet_scrape_returns_zero(self):
        d = RecentDelta()
        d.observe("t1", 7)
        assert d.observe("t1", 7) == 0.0

    def test_delta_between_scrapes(self):
        d = RecentDelta()
        d.observe("t1", 10)
        assert d.observe("t1", 25) == 15.0
        assert d.observe("t1", 25) == 0.0

    def test_keys_are_independent(self):
        d = RecentDelta()
        d.observe("t1", 10)
        assert d.observe("t2", 3) == 3.0
        assert d.observe("t1", 12) == 2.0

    def test_counter_reset_yields_new_total(self):
        # Source restarted: 100 -> 4.  The 4 events happened since the
        # last scrape; the delta must be 4, never -96.
        d = RecentDelta()
        d.observe("t1", 100)
        assert d.observe("t1", 4) == 4.0
        # Snapshot advanced to the post-reset value.
        assert d.observe("t1", 9) == 5.0

    def test_delta_never_negative(self):
        d = RecentDelta()
        for total in [50, 10, 3, 0, 7]:
            assert d.observe("k", total) >= 0.0

    def test_scalar_form(self):
        d = RecentDelta()
        assert d.observe_scalar(5) == 5.0
        assert d.observe_scalar(8) == 3.0
        assert d.observe_scalar(2) == 2.0  # reset

    def test_peek_and_forget(self):
        d = RecentDelta()
        d.observe("t1", 10)
        assert d.peek("t1") == 10.0
        d.forget("t1")
        assert d.peek("t1") == 0.0
        assert d.observe("t1", 12) == 12.0  # re-baselined


class TestExporterMigration:
    """The migrated call sites keep their documented semantics."""

    def test_tenancy_recent_discards_self_resolve(self):
        from repro.common.errors import RateLimitedError
        from repro.common.labels import LabelSet
        from repro.common.simclock import SimClock
        from repro.exporters.tenancy_exporter import TenancyExporter
        from repro.exporters.textformat import parse_exposition
        from repro.loki.model import LogEntry, PushRequest, PushStream
        from repro.tenancy import AdmissionController, LimitsRegistry, TenantLimits

        clock = SimClock()
        registry = LimitsRegistry(
            defaults=TenantLimits(
                ingestion_rate_lines_s=5.0, ingestion_burst_lines=5
            )
        )
        admission = AdmissionController(registry, clock, tracer=off_tracer())
        request = PushRequest(
            streams=(
                PushStream(
                    labels=LabelSet({"app": "svc"}),
                    entries=tuple(
                        LogEntry(i, f"line {i}") for i in range(20)
                    ),
                ),
            )
        )
        with pytest.raises(RateLimitedError):
            admission.admit_push(request, tenant="acme")
        exporter = TenancyExporter(admission)

        def recent(text):
            for sample in parse_exposition(text):
                if sample.name == "tenant_ingest_discarded_recent":
                    return sample.value
            raise AssertionError("gauge missing")

        first = recent(exporter.scrape().text())
        assert first > 0  # burst visible on the first scrape
        assert recent(exporter.scrape().text()) == 0.0  # self-resolves when quiet

    def test_queryx_recent_slow_self_resolves(self):
        class FakePool:
            def counters(self):
                return {"live_workers": 1, "workers": 1, "retries_total": 0}

            def worker_busy(self):
                return {}

        class FakePlanner:
            unsharded_plans = 0

        class FakeEngine:
            queries_total = 3
            log_queries_total = 0
            subqueries_total = 0
            slow_queries_total = 2
            last_wall_ns = 0
            last_serial_ns = 0
            pool = FakePool()
            planner = FakePlanner()

            def speedup(self):
                return 1.0

        from repro.exporters.queryx_exporter import QueryxExporter
        from repro.exporters.textformat import parse_exposition

        engine = FakeEngine()
        exporter = QueryxExporter(engine)

        def recent(text):
            for sample in parse_exposition(text):
                if sample.name == "queryx_slow_queries_recent":
                    return sample.value
            raise AssertionError("gauge missing")

        assert recent(exporter.scrape().text()) == 2.0
        assert recent(exporter.scrape().text()) == 0.0
        engine.slow_queries_total = 5
        assert recent(exporter.scrape().text()) == 3.0
