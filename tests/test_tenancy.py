"""Unit tests for repro.tenancy: limits, admission, scheduler, exporter."""

import pytest

from repro.common.errors import (
    QueryLimitError,
    RateLimitedError,
    StreamLimitError,
    ValidationError,
)
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, hours, minutes, seconds
from repro.exporters.tenancy_exporter import TenancyExporter
from repro.loki.frontend import QueryFrontend
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.loki.store import LokiStore
from repro.tenancy import (
    AdmissionController,
    LimitsRegistry,
    QueryScheduler,
    TenantLimits,
    TokenBucket,
)
from repro.tenancy.admission import (
    REASON_PER_STREAM_RATE,
    REASON_RATE_LIMITED,
    REASON_STREAM_LIMIT,
)
from tests.tracing import off_tracer


def push_of(lines, labels=None):
    labelset = LabelSet(labels or {"app": "svc"})
    return PushRequest(
        streams=(
            PushStream(
                labels=labelset,
                entries=tuple(LogEntry(i, f"line {i}") for i in range(lines)),
            ),
        )
    )


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=100)
        assert bucket.take(0, 100)
        assert not bucket.take(0, 1)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=100)
        bucket.take(0, 100)
        assert not bucket.take(seconds(0.5), 6)  # only 5 accrued
        assert bucket.take(seconds(1), 6)  # 5 + 5 more

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=10)
        bucket.take(0, 10)
        assert bucket.peek(seconds(60)) == 10.0

    def test_all_or_nothing(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=10)
        assert not bucket.take(0, 11)
        assert bucket.peek(0) == 10.0  # the failed take debited nothing

    def test_give_back_never_exceeds_burst(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=10)
        bucket.take(0, 4)
        bucket.give_back(100)
        assert bucket.peek(0) == 10.0

    def test_deterministic_across_instances(self):
        a = TokenBucket(rate_per_s=7.0, burst=50)
        b = TokenBucket(rate_per_s=7.0, burst=50)
        for now, n in [(0, 30), (seconds(2), 20), (seconds(3), 10)]:
            assert a.take(now, n) == b.take(now, n)
        assert a.peek(seconds(10)) == b.peek(seconds(10))

    def test_validation(self):
        with pytest.raises(ValidationError):
            TokenBucket(rate_per_s=0.0, burst=10)
        with pytest.raises(ValidationError):
            TokenBucket(rate_per_s=1.0, burst=0)
        with pytest.raises(ValidationError):
            TokenBucket(rate_per_s=1.0, burst=10).take(0, -1)


class TestLimitsRegistry:
    def test_defaults_apply_to_unknown_tenants(self):
        registry = LimitsRegistry()
        assert registry.limits_for("anyone") == TenantLimits()

    def test_override_is_per_tenant(self):
        registry = LimitsRegistry()
        custom = TenantLimits(ingestion_rate_lines_s=5.0)
        registry.set_override("loud", custom)
        assert registry.limits_for("loud") is custom
        assert registry.limits_for("quiet") == TenantLimits()

    def test_update_override_inherits_current(self):
        registry = LimitsRegistry()
        registry.update_override("t", max_active_streams=7)
        registry.update_override("t", ingestion_rate_lines_s=3.0)
        limits = registry.limits_for("t")
        assert limits.max_active_streams == 7
        assert limits.ingestion_rate_lines_s == 3.0

    def test_clear_override(self):
        registry = LimitsRegistry()
        registry.update_override("t", max_active_streams=7)
        registry.clear_override("t")
        assert registry.limits_for("t") == TenantLimits()

    def test_limit_validation(self):
        with pytest.raises(ValidationError):
            TenantLimits(ingestion_rate_lines_s=0.0)
        with pytest.raises(ValidationError):
            TenantLimits(max_active_streams=0)
        with pytest.raises(ValidationError):
            LimitsRegistry().set_override("", TenantLimits())


@pytest.fixture
def clock():
    return SimClock(0)


@pytest.fixture
def admission(clock):
    registry = LimitsRegistry()
    registry.set_override(
        "small",
        TenantLimits(
            ingestion_rate_lines_s=10.0,
            ingestion_burst_lines=100,
            max_active_streams=3,
            per_stream_rate_lines_s=5.0,
            per_stream_burst_lines=50,
        ),
    )
    return AdmissionController(registry, clock, tracer=off_tracer())


class TestAdmission:
    def test_tags_streams_with_tenant_label(self, admission):
        tagged = admission.admit_push(push_of(5), tenant="alpha")
        assert all(s.labels.get("tenant") == "alpha" for s in tagged.streams)

    def test_default_tenant_when_unspecified(self, admission):
        tagged = admission.admit_push(push_of(1))
        assert tagged.streams[0].labels.get("tenant") == "ops"

    def test_rate_limit_rejects_whole_push(self, admission):
        with pytest.raises(RateLimitedError) as err:
            admission.admit_push(push_of(101), tenant="small")
        assert err.value.tenant == "small"
        counters = admission.counters["small"]
        assert counters.pushes_rejected == 1
        assert counters.discarded[REASON_RATE_LIMITED] == 101
        assert counters.entries_accepted == 0

    def test_rejected_push_debits_nothing(self, admission, clock):
        with pytest.raises(RateLimitedError):
            admission.admit_push(push_of(101), tenant="small")
        # The full burst is still available for a conforming push.
        got = admission.admit_push(push_of(50), tenant="small")
        assert got.streams[0].entries

    def test_stream_limit(self, admission):
        for i in range(3):
            admission.admit_push(
                push_of(1, {"app": f"svc-{i}"}), tenant="small"
            )
        with pytest.raises(StreamLimitError):
            admission.admit_push(push_of(1, {"app": "svc-9"}), tenant="small")
        assert admission.active_streams("small") == 3
        assert admission.counters["small"].discarded[REASON_STREAM_LIMIT] == 1

    def test_existing_stream_not_counted_again(self, admission):
        for _ in range(5):
            admission.admit_push(push_of(1), tenant="small")
        assert admission.active_streams("small") == 1

    def test_per_stream_rate(self, admission):
        # Tenant-wide burst (100) allows it; the single stream's burst
        # (50) does not.
        with pytest.raises(RateLimitedError):
            admission.admit_push(push_of(51), tenant="small")
        assert (
            admission.counters["small"].discarded[REASON_PER_STREAM_RATE] == 51
        )

    def test_per_stream_reject_refunds_other_streams(self, admission, clock):
        # Two streams in one push; the second overdraws its stream
        # bucket, so the first stream's debit must be refunded too.
        request = PushRequest(
            streams=(
                PushStream(
                    labels=LabelSet({"app": "ok"}),
                    entries=tuple(LogEntry(i, "x") for i in range(40)),
                ),
                PushStream(
                    labels=LabelSet({"app": "greedy"}),
                    entries=tuple(LogEntry(i, "y") for i in range(51)),
                ),
            )
        )
        with pytest.raises(RateLimitedError):
            admission.admit_push(request, tenant="small")
        # "ok" still has its whole per-stream burst: 50 lines fit.
        got = admission.admit_push(push_of(50, {"app": "ok"}), tenant="small")
        assert len(got.streams[0].entries) == 50

    def test_bucket_refills_over_time(self, admission, clock):
        admission.admit_push(push_of(50), tenant="small")
        with pytest.raises(RateLimitedError):
            # The stream's bucket (burst 50) is empty until it refills.
            admission.admit_push(push_of(50), tenant="small")
        clock.advance(seconds(10))  # 5 lines/s * 10 s = 50 stream tokens
        got = admission.admit_push(push_of(50), tenant="small")
        assert len(got.streams[0].entries) == 50

    def test_tenants_are_isolated(self, admission):
        with pytest.raises(RateLimitedError):
            admission.admit_push(push_of(101), tenant="small")
        # Default-limits tenant is untouched by small's rejection.
        got = admission.admit_push(push_of(101), tenant="big")
        assert got.streams[0].labels.get("tenant") == "big"


@pytest.fixture
def scheduler_world(clock):
    store = LokiStore()
    store.push(
        PushRequest.single(
            {"app": "fm"}, [(minutes(i), f"e{i}") for i in range(60)]
        )
    )
    clock.advance(hours(2))
    registry = LimitsRegistry()
    frontend = QueryFrontend(LogQLEngine(store), clock, split_ns=hours(1))
    scheduler = QueryScheduler(frontend, clock, registry=registry, max_concurrency=2,
        tracer=off_tracer())
    scheduler.exec_base_ns, scheduler.exec_per_hour_ns = seconds(1), 0
    return clock, registry, scheduler


QUERY = 'sum(count_over_time({app="fm"}[10m]))'


class TestScheduler:
    def test_query_executes_and_completes(self, scheduler_world):
        clock, _, scheduler = scheduler_world
        ticket = scheduler.submit("a", QUERY, 0, hours(1), minutes(10))
        clock.advance(seconds(2))
        assert ticket.done
        assert ticket.error is None
        assert ticket.result
        assert scheduler.stats["a"].completed == 1

    def test_round_robin_interleaves_tenants(self, scheduler_world):
        clock, _, scheduler = scheduler_world
        # Tenant "hog" floods first; "victim" submits one query after.
        hog = [
            scheduler.submit("hog", QUERY, 0, hours(1), minutes(10))
            for _ in range(8)
        ]
        victim = scheduler.submit("victim", QUERY, 0, hours(1), minutes(10))
        clock.advance(seconds(20))
        assert victim.done and all(t.done for t in hog)
        # The victim never waits behind the whole hog queue: with 2 slots
        # and round-robin it starts within the first couple of rounds.
        assert victim.wait_ns <= seconds(2)

    def test_fifo_mode_starves_the_late_tenant(self, scheduler_world):
        clock, registry, _ = scheduler_world
        frontend = QueryFrontend(
            LogQLEngine(LokiStore()), clock, split_ns=hours(1)
        )
        fifo = QueryScheduler(frontend, clock, registry=registry, max_concurrency=1, fair=False,
            tracer=off_tracer())
        fifo.exec_base_ns, fifo.exec_per_hour_ns = seconds(1), 0
        for _ in range(5):
            fifo.submit("hog", QUERY, 0, hours(1), minutes(10))
        victim = fifo.submit("victim", QUERY, 0, hours(1), minutes(10))
        clock.advance(seconds(10))
        assert victim.done
        assert victim.wait_ns >= seconds(5)  # behind the entire hog queue

    def test_concurrency_cap_per_tenant(self, scheduler_world):
        clock, registry, scheduler = scheduler_world
        registry.update_override("hog", max_concurrent_queries=1)
        for _ in range(4):
            scheduler.submit("hog", QUERY, 0, hours(1), minutes(10))
        # Two slots, but the hog may only hold one of them.
        assert scheduler.running("hog") == 1
        assert scheduler.queue_depth("hog") == 3

    def test_range_limit_rejects_at_submit(self, scheduler_world):
        clock, registry, scheduler = scheduler_world
        registry.update_override("t", max_query_range_ns=hours(1))
        with pytest.raises(QueryLimitError):
            scheduler.submit("t", QUERY, 0, hours(2), minutes(10))
        assert scheduler.stats["t"].rejected == 1

    def test_series_limit_fails_the_ticket(self, clock):
        store = LokiStore()
        for i in range(5):
            store.push(
                PushRequest.single({"app": "fm", "host": f"h{i}"}, [(0, "x")])
            )
        clock.advance(hours(1))
        registry = LimitsRegistry()
        registry.update_override("t", max_series_per_query=2)
        scheduler = QueryScheduler(
            QueryFrontend(LogQLEngine(store), clock, split_ns=hours(1)), clock, registry=registry,
            tracer=off_tracer(),
        )
        scheduler.exec_base_ns = scheduler.exec_per_hour_ns = 0
        ticket = scheduler.submit(
            "t",
            'sum(count_over_time({app="fm"}[10m])) by (host)',
            0,
            minutes(30),
            minutes(10),
        )
        clock.advance(seconds(1))
        assert ticket.done
        assert isinstance(ticket.error, QueryLimitError)
        assert scheduler.stats["t"].failed == 1

    def test_wait_percentile(self, scheduler_world):
        clock, _, scheduler = scheduler_world
        for _ in range(6):
            scheduler.submit("t", QUERY, 0, hours(1), minutes(10))
        clock.advance(seconds(20))
        p95 = scheduler.wait_percentile_ns("t", 95.0)
        p50 = scheduler.wait_percentile_ns("t", 50.0)
        assert p95 >= p50 >= 0

    def test_mean_and_percentile_wait_read_the_same_queries(self, clock):
        """One slot: a query that completes, then one that fails after
        waiting out the first's 0.55 s.  Both left the queue, so both
        waits count, in the mean as in the percentile."""
        store = LokiStore()
        store.push(PushRequest.single({"app": "fm"}, [(minutes(1), "e")]))
        clock.advance(hours(2))
        frontend = QueryFrontend(LogQLEngine(store), clock, split_ns=hours(1))
        scheduler = QueryScheduler(frontend, clock, max_concurrency=1, tracer=off_tracer())
        scheduler.submit("t", QUERY, 0, hours(1), minutes(10))
        scheduler.submit("t", "sum(", 0, hours(1), minutes(10))
        clock.advance(seconds(2))
        stats = scheduler.stats["t"]
        assert (stats.completed, stats.failed) == (1, 1)
        assert stats.waits_ns == [0, seconds(0.55)]
        assert stats.mean_wait_ns == scheduler.wait_percentile_ns("t", 50.0) == seconds(0.55) / 2


class TestTenancyExporter:
    def test_exports_admission_and_scheduler_metrics(self, clock):
        registry = LimitsRegistry()
        registry.update_override(
            "small", ingestion_rate_lines_s=1.0, ingestion_burst_lines=10
        )
        admission = AdmissionController(registry, clock, tracer=off_tracer())
        admission.admit_push(push_of(5), tenant="small")
        with pytest.raises(RateLimitedError):
            admission.admit_push(push_of(20), tenant="small")
        store = LokiStore()
        scheduler = QueryScheduler(
            QueryFrontend(LogQLEngine(store), clock, split_ns=hours(1)), clock, registry=registry,
            tracer=off_tracer(),
        )
        scheduler.exec_base_ns = scheduler.exec_per_hour_ns = 0
        exporter = TenancyExporter(admission, scheduler)
        text = exporter.scrape().text()
        assert 'tenant_ingest_entries_total{tenant="small"} 5.0' in text
        assert (
            'tenant_ingest_discarded_total{reason="rate_limited",'
            'tenant="small"} 20.0' in text
        )
        assert 'tenant_ingest_discarded_recent{tenant="small"} 20.0' in text
        assert 'tenant_active_streams{tenant="small"} 1.0' in text

    def test_recent_gauge_self_resolves(self, clock):
        registry = LimitsRegistry()
        registry.update_override(
            "small", ingestion_rate_lines_s=1.0, ingestion_burst_lines=10
        )
        admission = AdmissionController(registry, clock, tracer=off_tracer())
        with pytest.raises(RateLimitedError):
            admission.admit_push(push_of(20), tenant="small")
        exporter = TenancyExporter(admission)
        assert 'discarded_recent{tenant="small"} 20.0' in exporter.scrape().text()
        # No new discards: the next scrape reads zero — the alert clears.
        assert 'discarded_recent{tenant="small"} 0.0' in exporter.scrape().text()
