"""End-to-end pipeline tracing: one leak event → one coherent trace.

Covers the issue's acceptance criteria directly: ≥6 services on the
trace, TraceQL reachability, stage durations summing to the end-to-end
latency, metric exemplars linking back, and — the no-observer-effect
guarantee — byte-identical case-study artifacts with tracing on and off.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.labels import Matcher, MatchOp
from repro.common.simclock import SimClock, minutes, seconds
from repro.core.casestudies.leak import leak_case_config, run_leak_case_study
from repro.core.casestudies.switch import run_switch_case_study, switch_case_config
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.grafana.render import render_trace_waterfall
from repro.tempo.metrics import TraceMetricsExporter
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer
from repro.tsdb.storage import Exemplar, TimeSeriesStore


@pytest.fixture(scope="module")
def traced_leak():
    config = leak_case_config()
    config.tracing_sampling = 1.0
    return run_leak_case_study(config)


class TestLeakTrace:
    def test_one_leak_event_one_coherent_trace(self, traced_leak):
        fw = traced_leak.framework
        hits = fw.traceql.find_spans(
            '{ span.service = "ruler" && span.alertname = "PerlmutterCabinetLeak" }'
        )
        assert len(hits) == 1
        trace_id = hits[0].trace_id
        services = fw.traces.services(trace_id)
        assert {
            "redfish", "broker", "telemetry_api", "consumer",
            "loki", "ruler", "alertmanager", "slack",
        } <= services

    def test_stage_durations_sum_to_end_to_end_latency(self, traced_leak):
        fw = traced_leak.framework
        trace_id = fw.traceql.find_spans(
            '{ span.alertname = "PerlmutterCabinetLeak" }'
        )[0].trace_id
        spans = fw.traces.trace(trace_id)
        stage_sum = sum(s.duration_ns for s in spans)
        end_to_end = (
            traced_leak.timeline["slack_ns"]
            - traced_leak.timeline["redfish_event_ns"]
        )
        assert stage_sum == fw.traces.duration_ns(trace_id) == end_to_end

    def test_trace_is_a_single_parent_chain(self, traced_leak):
        fw = traced_leak.framework
        trace_id = fw.traceql.find_spans(
            '{ span.alertname = "PerlmutterCabinetLeak" }'
        )[0].trace_id
        spans = fw.traces.trace(trace_id)
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].service == "redfish"
        for s in spans:
            if s.parent_id is not None:
                assert s.parent_id in by_id

    def test_both_receivers_close_the_trace(self, traced_leak):
        fw = traced_leak.framework
        trace_id = fw.traceql.find_spans(
            '{ span.alertname = "PerlmutterCabinetLeak" }'
        )[0].trace_id
        receivers = {
            s.service for s in fw.traces.trace(trace_id) if s.name == "notify"
        }
        assert receivers == {"slack", "servicenow"}

    def test_self_metrics_with_exemplars(self, traced_leak):
        fw = traced_leak.framework
        leak_trace = fw.traceql.find_spans(
            '{ span.alertname = "PerlmutterCabinetLeak" }'
        )[0].trace_id
        samples = fw.promql.query_instant(
            'tempo_stage_latency_p99_seconds{service="ruler"}', fw.clock.now_ns
        )
        assert samples and samples[0].value == pytest.approx(90.0)
        exemplars = fw.warehouse.tsdb.exemplars(
            [
                Matcher("__name__", MatchOp.EQ, "tempo_stage_latency_p99_seconds"),
                Matcher("service", MatchOp.EQ, "ruler"),
            ],
            0,
            fw.clock.now_ns + 1,
        )
        assert exemplars
        assert exemplars[0][1][-1].trace_id == leak_trace

    def test_tracing_dashboard_renders_waterfall(self, traced_leak):
        fw = traced_leak.framework
        out = fw.dashboards["tracing"].render(
            fw.clock.now_ns - minutes(30), fw.clock.now_ns + 1, minutes(1)
        )
        assert "Slowest delivered alert" in out
        assert "PerlmutterCabinetLeak" in out
        assert "alertmanager" in out


class TestSwitchTrace:
    def test_fm_path_is_traced_via_xname_correlation(self):
        config = switch_case_config()
        config.tracing_sampling = 1.0
        case = run_switch_case_study(config)
        fw = case.framework
        hits = fw.traceql.find_spans(
            '{ span.service = "ruler" && span.alertname = "SwitchOffline" }'
        )
        assert len(hits) == 1
        services = fw.traces.services(hits[0].trace_id)
        assert {"fabric_manager", "loki", "ruler", "alertmanager", "slack"} <= services


class TestNoObserverEffect:
    def test_disabled_tracing_produces_identical_artifacts(self):
        baseline = run_leak_case_study(leak_case_config())
        config = leak_case_config()
        config.tracing_sampling = 1.0
        traced = run_leak_case_study(config)
        assert traced.fig2_payload == baseline.fig2_payload
        assert traced.fig3_payload == baseline.fig3_payload
        assert traced.fig4_table == baseline.fig4_table
        assert traced.fig5_chart == baseline.fig5_chart
        assert traced.fig6_slack == baseline.fig6_slack
        assert traced.timeline == baseline.timeline
        # Tracing off is a tracer at sampling 0: it records nothing and
        # counts nothing.
        untraced = baseline.framework
        assert untraced.tracer.sampling == 0.0
        assert len(untraced.traces) == 0
        assert untraced.traces.spans_added == 0
        assert untraced.tracer.counters() == {
            "traces_started": 0, "traces_sampled_out": 0, "spans_recorded": 0,
        }

    def test_default_config_has_tracing_off(self):
        assert FrameworkConfig().tracing_sampling == 0.0


FLAGS = (
    "enable_ingest_ring", "enable_self_healing", "enable_multi_tenancy",
    "enable_object_storage", "enable_query_engine", "enable_reliable_delivery",
    "enable_pattern_mining", "enable_slo",
)

#: Every (service, name) the faulted all-planes run below records: each
#: place in the program that writes a span, and each correlation stage of
#: the pipeline instrumentation, ran at least once.
RECORDED = {
    ("admission", "admit"),
    ("alertmanager", "group_and_route"),
    ("broker", "queue"),
    ("compactor", "objstore.compact"),
    ("consumer", "RedfishEventConsumer"),
    ("consumer", "SensorMetricConsumer"),
    ("distributor", "push"),
    ("fabric_manager", "switch_event"),
    ("ingester", "append"),
    ("loki", "push"),
    ("pattern-ruler", "ruler.novel_error_pattern"),
    ("pattern-ruler", "ruler.pattern_burst"),
    ("patterns", "miner.observe"),
    ("patterns", "patterns.query"),
    ("querier", "query_range"),
    ("querier", "queryx.subquery"),
    ("query-frontend", "queryx.merge"),
    ("query-frontend", "queryx.plan"),
    ("query-frontend", "queryx.query"),
    ("recording", "evaluate_rules"),
    ("redfish", "hms.publish_events"),
    ("redfish", "hms.sensor_sample"),
    ("ruler", "PerlmutterCabinetLeak"),
    ("ruler", "SwitchOffline"),
    ("scheduler", "execute"),
    ("selfheal", "declare_dead"),
    ("selfheal", "heal"),
    ("selfheal", "repair_member"),
    ("selfheal", "suspect"),
    ("servicenow", "delivery_attempt"),
    ("servicenow", "notify"),
    ("shipper", "objstore.flush"),
    ("slack", "delivery_attempt"),
    ("slo", "evaluate_budgets"),
    ("store-gateway", "objstore.select"),
    ("telemetry_api", "fetch"),
    ("tsdb", "write"),
}

#: sha256 over every span of that run, in the order the store got them.
SPAN_DIGEST = "a48e75c4529b133cc021dc3d9e917ec9e0813546836dbee22b53e1c256805bb7"


def span_digest() -> tuple[str, Counter, int]:
    """A short, seeded, faulted all-planes run with tracing on: a leak, a
    switch, a Slack outage, an ingester crash and a heartbeat loss, one
    sharded log read, one scheduled query, one pattern query and one
    compaction.  Every span is hashed as :class:`TraceStore` receives
    it — the store keeps only the newest traces, so a digest of what it
    holds at the end would miss the early ones."""
    config = FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
        seed=7, tracing_sampling=1.0, **{flag: True for flag in FLAGS},
    )
    fw = MonitoringFramework(config)
    digest = hashlib.sha256()
    pairs: Counter = Counter()
    add = fw.traces.add

    def hashing(span):
        digest.update(json.dumps([
            span.trace_id, span.span_id, span.parent_id, span.service,
            span.name, span.start_ns, span.end_ns,
            sorted(span.attributes.items()), span.status.value,
        ]).encode())
        pairs[(span.service, span.name)] += 1
        add(span)

    fw.traces.add = hashing  # shim on the instance
    fw.start()
    schedule = fw.faults.schedule
    schedule(FaultKind.CABINET_LEAK, sorted(fw.cluster.cabinets)[0],
             delay_ns=minutes(1), duration_ns=minutes(5))
    schedule(FaultKind.SWITCH_OFFLINE, sorted(fw.cluster.switches)[1],
             delay_ns=minutes(2), duration_ns=minutes(4))
    schedule(FaultKind.RECEIVER_OUTAGE, "slack",
             delay_ns=minutes(2), duration_ns=minutes(4))
    schedule(FaultKind.INGESTER_CRASH, "ingester-1",
             delay_ns=minutes(3), duration_ns=minutes(3))
    schedule(FaultKind.HEARTBEAT_LOSS, "ingester-2",
             delay_ns=minutes(8), duration_ns=minutes(10))
    hosts = sorted(str(x) for x in fw.cluster.nodes)
    cluster = config.cluster_name
    for minute in range(22):
        now = fw.clock.now_ns
        for i in range(6):
            n = minute * 6 + i
            fw.publish_syslog(
                {"hostname": hosts[n % len(hosts)], "data_type": "syslog",
                 "cluster": cluster, "severity": "err" if n % 17 == 0 else "info"},
                now + i, f"kernel: eth{n % 4} link state change seq={n}",
            )
            fw.publish_container_log(
                {"app": f"svc-{n % 3}", "data_type": "container_log",
                 "cluster": cluster},
                now + i, f"level=info request_id={n} took={n % 97}ms",
            )
        if minute == 12:
            fw.queryx.query_logs(
                '{data_type="syslog"} |= "link"', now - minutes(10), now
            )
            fw.scheduler.submit(
                "ops", 'sum(count_over_time({data_type="syslog"} |= "link" [1m]))',
                now - minutes(5), now, minutes(1),
            )
        fw.run_for(minutes(1))
    now = fw.clock.now_ns
    fw.logql.detected_patterns('{data_type="syslog"}', now - minutes(30), now)
    fw.compactor.run()
    return digest.hexdigest(), pairs, fw.tracer.spans_recorded


class TestSpanDigest:
    def test_every_span_is_pinned(self):
        digest, pairs, recorded = span_digest()
        assert set(pairs) == RECORDED
        assert sum(pairs.values()) == recorded == 8471
        assert digest == SPAN_DIGEST


class TestTraceMetricsExporter:
    def test_export_writes_counts_and_quantiles(self):
        clock = SimClock()
        store = TraceStore()
        tracer = Tracer(store, clock)
        tsdb = TimeSeriesStore()
        root = tracer.record("loki", "push", None, 0, seconds(1))
        tracer.record("loki", "push", root, 0, seconds(3))
        exporter = TraceMetricsExporter(store, tsdb, clock, cluster="test")
        clock.advance(seconds(10))
        written = exporter.export()
        assert written == 4  # traces + spans + p50 + p99
        sel = tsdb.select(
            [Matcher("__name__", MatchOp.EQ, "tempo_spans")], 0, clock.now_ns + 1
        )
        assert sel[0][2][-1] == 2.0
        p99 = tsdb.select(
            [Matcher("__name__", MatchOp.EQ, "tempo_stage_latency_p99_seconds")],
            0,
            clock.now_ns + 1,
        )
        assert p99[0][2][-1] == pytest.approx(3.0)
        ex = tsdb.exemplars(
            [Matcher("__name__", MatchOp.EQ, "tempo_stage_latency_p99_seconds")],
            0,
            clock.now_ns + 1,
        )
        assert ex[0][1][-1].trace_id == root.trace_id
        assert ex[0][1][-1].value == pytest.approx(3.0)


class _IngestLog:
    """A metric store that keeps every ``ingest`` call, in order."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def ingest(self, name, labels, value, timestamp_ns, exemplar=None) -> bool:
        self.calls.append((name, dict(labels), value, timestamp_ns, exemplar))
        return True


def _rescan_export(store: TraceStore, now: int, cluster: str) -> list[tuple]:
    """The reference: one export as a full rescan of the trace store."""

    def nearest_rank(sorted_values: list[int], quantile: float) -> int:
        rank = max(1, -(-int(quantile * 1000) * len(sorted_values) // 1000))
        return sorted_values[min(rank, len(sorted_values)) - 1]

    base = {"cluster": cluster, "job": "tempo"}
    calls = [("tempo_traces", base, float(len(store)), now, None)]
    by_service: dict[str, list[tuple[int, str]]] = {}
    for span in store.all_spans():
        by_service.setdefault(span.service, []).append((span.duration_ns, span.trace_id))
    for service, items in sorted(by_service.items()):
        labels = {**base, "service": service}
        durations = sorted(d for d, _ in items)
        slowest_ns, slowest_trace = max(items)
        calls += [
            ("tempo_spans", labels, float(len(items)), now, None),
            (
                "tempo_stage_latency_p50_seconds", labels,
                nearest_rank(durations, 0.50) / 1e9, now, None,
            ),
            (
                "tempo_stage_latency_p99_seconds", labels,
                nearest_rank(durations, 0.99) / 1e9, now,
                Exemplar(slowest_trace, slowest_ns / 1e9, now),
            ),
        ]
    return calls


class TestIncrementalExport:
    def test_matches_a_full_rescan_across_evictions(self):
        rng = random.Random(5)
        clock = SimClock()
        store = TraceStore()
        store.max_traces = 6  # small enough that most traces are evicted
        tracer = Tracer(store, clock, seed=3)
        tsdb = _IngestLog()
        exporter = TraceMetricsExporter(store, tsdb, clock, cluster="test")
        services = ["loki", "ruler", "tsdb", "slack"]
        for _ in range(8):
            for _ in range(rng.randrange(1, 5)):
                start = clock.now_ns
                root = tracer.record(
                    rng.choice(services), "root", None, start,
                    start + seconds(rng.choice([1, 2, 2, 3, 7])),
                )
                for _ in range(rng.randrange(0, 4)):
                    tracer.record(
                        rng.choice(services), "child", root, start,
                        start + seconds(rng.choice([0, 1, 2, 5])),
                    )
            clock.advance(seconds(60))
            before = len(tsdb.calls)
            exporter.export()
            assert tsdb.calls[before:] == _rescan_export(store, clock.now_ns, "test")
        assert store.traces_evicted > 0
        # Evicted spans leave nothing behind: a service whose traces
        # all went has no list left.
        live = {s.service for s in store.all_spans()}
        assert set(store.durations_by_service()) == live


class TestExemplarStorage:
    def test_exemplars_survive_and_trim_with_retention(self):
        tsdb = TimeSeriesStore()
        for i in range(5):
            tsdb.ingest(
                "m",
                {"a": "b"},
                float(i),
                seconds(i),
                exemplar=Exemplar(f"{i:032x}", float(i), seconds(i)),
            )
        matchers = [Matcher("__name__", MatchOp.EQ, "m")]
        assert len(tsdb.exemplars(matchers, 0, seconds(10))[0][1]) == 5
        # Window filter applies to exemplar timestamps.
        assert len(tsdb.exemplars(matchers, seconds(3), seconds(10))[0][1]) == 2
        tsdb.delete_before(seconds(3))
        remaining = tsdb.exemplars(matchers, 0, seconds(10))[0][1]
        assert [e.trace_id for e in remaining] == [f"{3:032x}", f"{4:032x}"]


class TestWaterfallRender:
    def test_empty_and_zero_duration(self):
        assert "(no spans)" in render_trace_waterfall([], title="t")
        clock = SimClock()
        store = TraceStore()
        tracer = Tracer(store, clock)
        root = tracer.record("redfish", "birth", None, 0, 0)
        tracer.record("ruler", "Leak", root, 0, seconds(90))
        out = render_trace_waterfall(store.trace(root.trace_id))
        assert "2 spans" in out
        assert "1m30s" in out
        assert "▏" in out  # zero-duration tick
        assert "█" in out  # real bar
