"""Runs one workload through the real front door and measures it.

One process, one thread.  Ingest is open loop on the sim clock: each
10-sim-second slice is advanced with ``fw.run_for`` and the lines created
in it are then published; consumers drain on the framework's default
cadences and the backlog is sampled, not assumed.  Reads are a closed
loop with one client.  The reference answers come from :mod:`oracle`.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter

from repro.cluster.faults import FaultKind
from repro.common.simclock import PAPER_EPOCH_NS, SimClock, hours, minutes
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.loki.chunks import ChunkPolicy

import layers
import loadgen
import oracle as oracle_mod
from hostspeed import HostSpeed
from loadgen import SETTLE_NS, SLICE_NS, Workload

#: p95 is reported only with at least this many samples (>= 10 beyond it).
P95_MIN_SAMPLES = 200
#: Slices allowed for the post-ingest drain before the run counts as failed.
MAX_DRAIN_SLICES = 60

PLANE_FLAGS = (
    "enable_ingest_ring", "enable_self_healing", "enable_reliable_delivery",
    "enable_multi_tenancy", "enable_object_storage", "enable_query_engine",
    "enable_pattern_mining", "enable_slo",
)


def median_ms(samples_ns: list[float]) -> float:
    return statistics.median(samples_ns) / 1e6


def p95_ms(samples_ns: list[float]) -> float:
    """Nearest-rank p95; refused when fewer than ten samples lie beyond it."""
    if len(samples_ns) < P95_MIN_SAMPLES:
        raise ValueError(
            f"p95 needs >= {P95_MIN_SAMPLES} samples, got {len(samples_ns)}"
        )
    ordered = sorted(samples_ns)
    return ordered[(len(ordered) * 95 + 99) // 100 - 1] / 1e6


def build_framework(w: Workload, seed: int) -> MonitoringFramework:
    """Every config value is the default except the cluster, the seed and
    the eight plane flags (set both ways, so REPRO_* env has no say)."""
    flags = {flag: w.all_planes for flag in PLANE_FLAGS}
    config = FrameworkConfig(cluster_spec=w.cluster_spec(), seed=seed, **flags)
    fw = MonitoringFramework(config, SimClock(PAPER_EPOCH_NS))
    fw.start()
    return fw


def consumer_lag(fw: MonitoringFramework) -> int:
    return sum(fw.broker.lag(group, topic) for group, topic in fw.broker.group_ids())


class Run:
    """One pass of one workload: ingest, settle, read, then verify."""

    def __init__(
        self, w: Workload, seed: int, speed: HostSpeed,
        tracer: layers.Tracer | None = None,
    ):
        self.speed = speed
        self.tracer = tracer
        self.fw = build_framework(w, seed)
        self.inputs = loadgen.build_inputs(
            self.fw.cluster, w, seed, self.fw.clock.now_ns
        )
        #: (start, end) on perf_counter_ns of every read, by query class.
        self.reads: dict[str, list[tuple[int, int]]] = {
            c: [] for c in loadgen.QUERY_CLASSES
        }
        self.observed: list = []
        self.problems: list[str] = []
        self.backlog_peak = 0

    # -- phases -----------------------------------------------------------
    def _phase(self, name: str, body):
        if self.tracer is None:
            return body()
        return self.tracer.phase(name, body)

    def ingest(self) -> None:
        fw = self.fw
        for fault in self.inputs.faults:
            fw.faults.schedule(
                FaultKind[fault.kind], fault.target,
                delay_ns=fault.start_ns - fw.clock.now_ns,
                duration_ns=fault.duration_ns,
            )
        publish = {
            "syslog": fw.publish_syslog, "container_log": fw.publish_container_log,
        }
        before = fw.warehouse.messages_ingested
        started = time.perf_counter_ns()
        for batch in self.inputs.slices():
            fw.run_for(SLICE_NS)
            for log in batch:
                publish[log.labels["data_type"]](log.labels, log.timestamp_ns, log.line)
            self.backlog_peak = max(self.backlog_peak, consumer_lag(fw))
        for _ in range(MAX_DRAIN_SLICES):
            if consumer_lag(fw) == 0:
                break
            fw.run_for(SLICE_NS)
        self.ingest_span = (started, time.perf_counter_ns())
        self.messages = fw.warehouse.messages_ingested - before
        self.sim_ns = fw.clock.now_ns - self.inputs.t0_ns

    def settle(self) -> None:
        self.fw.run_for(SETTLE_NS)

    def read(self) -> None:
        fw = self.fw
        query_range = (fw.frontend or fw.logql).query_range
        query_logs = (fw.queryx or fw.logql).query_logs
        now = fw.clock.now_ns
        since = now - min(hours(1), self.inputs.span_ns)
        nodes = len(fw.cluster.nodes)
        for q in self.inputs.queries:
            start = time.perf_counter_ns()
            if q.cls == "dash":
                result = fw.dashboards[q.text].render(since, now, minutes(1))
            elif q.cls == "promql":
                result = fw.promql.query_range(q.text, since, now, minutes(1))
            elif q.step_ns:
                result = query_range(q.text, q.start_ns, q.end_ns, q.step_ns)
            else:
                result = query_logs(q.text, q.start_ns, q.end_ns)
            self.reads[q.cls].append((start, time.perf_counter_ns()))
            self.observed.append(_summarise(q, result, nodes))
        # Before verify() reads the whole span back through the same tiers.
        self.cold_fetches = (
            fw.store_gateway.counters()["chunks_fetched"] if fw.store_gateway else 0
        )

    def execute(self) -> None:
        """The measured window: everything between the first publish and
        the last query result."""
        gc.collect()
        started = time.perf_counter_ns()
        self._phase("bench.ingest", self.ingest)
        self._phase("bench.settle", self.settle)
        gc.collect()
        self._phase("bench.read", self.read)
        self.wall_span = (started, time.perf_counter_ns())
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- verification -----------------------------------------------------
    def verify(self) -> tuple[int, int]:
        """Returns ``(ops_attempted, ops_failed)``; details in ``problems``."""
        fw, inputs = self.fw, self.inputs
        ref = oracle_mod.Oracle(inputs.logs, loadgen.FILTER_NEEDLE)
        self.bytes_published = ref.bytes_published
        attempted = failed = 0

        # Every published line is queryable at the end.
        end = inputs.t0_ns + inputs.span_ns
        stored = Counter()
        for labels, entries in fw.logql.query_logs(
            '{data_type=~"syslog|container_log"}', inputs.t0_ns, end
        ):
            stored[labels["data_type"]] += len(entries)
        for data_type, want in ref.totals.items():
            attempted += want
            missing = abs(want - stored[data_type])
            if missing:
                failed += missing
                self.problems.append(
                    f"{data_type}: published {want}, queryable {stored[data_type]}"
                )

        for q, got in zip(inputs.queries, self.observed):
            attempted += 1
            # Dashboards and PromQL have no oracle; theirs is a sanity
            # check whose complaint, if any, is the summary itself.
            want = ref.expect(q) if q.cls in oracle_mod.CLASSES else None
            if got != want:
                failed += 1
                self.problems.append(f"{q.cls} {q.param or q.text}: {_diff(want, got)}")

        incidents = [(i.ci_name, i.opened_at_ns) for i in fw.servicenow.incidents()]
        fault_problems, self.alert_latencies_ns = oracle_mod.check_faults(
            inputs.faults, incidents, [m.text for m in fw.slack.messages]
        )
        attempted += 2 * len(inputs.faults)
        failed += len(fault_problems)
        self.problems += fault_problems

        # A run that outlasts the chunk max-age by a flush has sealed chunks:
        # they must have gone cold, and reads must have come back from there.
        outlasts = ChunkPolicy().max_age_ns + fw.config.objstore_flush_interval_ns
        if fw.shipper is not None and inputs.span_ns + SETTLE_NS >= outlasts:
            attempted += 2
            if not fw.shipper.counters()["chunks_shipped"]:
                failed += 1
                self.problems.append("no chunk was shipped to the object store")
            if not self.cold_fetches:
                failed += 1
                self.problems.append("no read was served from the cold tier")

        attempted += 2
        lag = consumer_lag(fw)
        if lag:
            failed += 1
            self.problems.append(f"consumer lag {lag} at the end")
        pending = fw.journal.stats()["pending"] if fw.journal is not None else 0
        if pending:
            failed += 1
            self.problems.append(f"{pending} deliveries pending at the end")
        return attempted, failed

    # -- results ----------------------------------------------------------
    def end_to_end(self) -> dict[str, dict]:
        """The end-to-end metrics but ``setup_s``, which the caller adds.

        A timing's ``value`` is wall-clock at the reference host speed
        (see :mod:`hostspeed`); ``raw`` is the wall-clock as it read.
        Units are BENCHMARK.json's.
        """
        report = self.fw.warehouse.storage_report()
        stored = report["log_stored_bytes"] + report.get("log_cold_bytes", 0.0)
        speed = self.speed.at_reference_speed

        def timing(cls, reduce):
            spans = self.reads[cls]
            return {
                "value": reduce([speed(a, b) for a, b in spans]), "n": len(spans),
                "raw": reduce([b - a for a, b in spans]),
            }

        start, end = self.ingest_span
        out = {
            "ingest_msgs_per_s": {
                "value": self.messages / (speed(start, end) / 1e9), "n": self.messages,
                "raw": self.messages / ((end - start) / 1e9),
            },
            "q_tail_p50_ms": timing("tail", median_ms),
            "q_filter_p50_ms": timing("filter", median_ms),
            "q_agg_p50_ms": timing("agg", median_ms),
            "q_wide_p50_ms": timing("wide", median_ms),
            "q_dash_p50_ms": timing("dash", median_ms),
            "q_promql_p50_ms": timing("promql", median_ms),
            "alert_latency_sim_s": {
                "value": statistics.median(self.alert_latencies_ns) / 1e9
                if self.alert_latencies_ns else float("nan"),
                "n": len(self.alert_latencies_ns),
            },
            "store_bytes_per_log_byte": {
                "value": stored / self.bytes_published, "n": len(self.inputs.logs),
            },
            "peak_rss_mb": {"value": self.peak_rss_mb, "n": 1},
        }
        if len(self.reads["tail"]) >= P95_MIN_SAMPLES:
            out["q_tail_p95_ms"] = timing("tail", p95_ms)
        return out

    def wall_s(self, raw: bool = False) -> float:
        """The measured window, first publish to last query result, at the
        reference host speed unless ``raw``."""
        start, end = self.wall_span
        return (end - start if raw else self.speed.at_reference_speed(start, end)) / 1e9

    def counts(self) -> dict[str, int]:
        """Sim-determined counts: identical between two runs of one seed."""
        fw = self.fw
        report = fw.warehouse.storage_report()
        return {
            "messages_ingested": fw.warehouse.messages_ingested,
            "ingest_phase_messages": self.messages,
            "ingest_phase_sim_s": self.sim_ns // 1_000_000_000,
            "log_lines_published": len(self.inputs.logs),
            "log_bytes_published": self.bytes_published,
            "log_streams": int(report["log_streams"]),
            "log_chunks": int(report["log_chunks"]),
            "log_stored_bytes": int(report["log_stored_bytes"]),
            "log_cold_bytes": int(report.get("log_cold_bytes", 0)),
            "metric_series": int(report["metric_series"]),
            "metric_samples": int(report["metric_samples"]),
            "alert_events": fw.alertmanager.events_received,
            "notifications": fw.alertmanager.notifications_sent,
            "sn_incidents": len(fw.servicenow.incidents()),
            "slack_messages": len(fw.slack.messages),
            "backlog_peak": self.backlog_peak,
        }


def _summarise(q, result, nodes: int):
    """Reduce a query result to what the oracle predicts."""
    if q.cls == "dash":
        return None if q.text in result.lower() and len(result) > 200 else "empty render"
    if q.cls == "promql":
        return _check_promql(q.text, result, nodes)
    if q.cls == "tail":
        # Console lines of the same host ride along; the oracle knows the
        # generator's syslog lines only.  A stream of any other host or
        # kind is a wrong answer.
        n = 0
        for labels, entries in result:
            if labels["hostname"] != q.param:
                return f"stream of {labels['hostname']}"
            if labels["data_type"] == "syslog":
                n += len(entries)
            elif labels["data_type"] != "console_log":
                return f"stream of kind {labels['data_type']}"
        return n
    if q.cls == "filter":
        return sum(len(entries) for _labels, entries in result)
    label = {"agg": "app", "wide": "severity"}[q.cls]
    return {
        (series.labels[label], t): int(v)
        for series in result
        for t, v in series.points
    }


def _diff(want, got) -> str:
    if not isinstance(want, dict) or not isinstance(got, dict):
        return f"want {want}, got {got}"
    keys = [k for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
    k = keys[0]
    return f"{len(keys)} points differ, first {k}: want {want.get(k)}, got {got.get(k)}"


def _check_promql(text: str, series, nodes: int) -> str | None:
    """No PromQL oracle (the samples are the machine model's, not the
    generator's): node counts are bounded by the fault schedule, and
    temperatures must be physical."""
    if text.startswith("sum(node_up)"):
        if len(series) != 1 or not series[0].points:
            return f"{len(series)} series"
        values = series[0].values()
        if values[-1] != nodes or min(values) < nodes - 6 or max(values) > nodes:
            return f"values {min(values)}..{max(values)}, last {values[-1]}"
        return None
    if not series:
        return "no series"
    for s in series:
        if not s.points or not all(5.0 < v < 120.0 for v in s.values()):
            return "implausible temperatures"
    return None


def per_layer(run: Run, untraced_wall_s: float, names: list[str]) -> dict[str, float]:
    """One traced run's value for each of ``names``, BENCHMARK.json's
    per-layer metrics.

    ``<span>_ms`` is the self time of the span of that name (see
    ``layers.BOUNDARIES``); the rest are counts read from the tracer's
    rows or the components' own public counters.  A layer the workload
    does not build reads 0.
    """
    fw, tracer = run.fw, run.tracer
    times = layers.self_times(tracer.spans, tracer.rows)

    def calls(name: str) -> int:
        return times.get(name, [0, 0, 0, 0])[0]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values: dict[str, float] = {}
    # Self time of every recorded name; the benchmark's own phases and the
    # root fold into one "generator" figure, chunk decode into chunk read.
    merged: dict[str, float] = {}
    for name, (_calls, _total, self_ns, _items) in times.items():
        if name.startswith("bench."):
            name = "bench.generator"
        elif name == "loki.chunks.decode":
            name = "loki.chunks.read"
        merged[name] = merged.get(name, 0.0) + self_ns / 1e6
    for name in names:
        if name.endswith("_ms"):
            values[name] = merged.pop(name[:-3], 0.0)
    if merged:
        raise KeyError(f"span names without a per-layer metric: {sorted(merged)}")
    root = next(s for s in tracer.spans if s[0] == 0)
    traced_wall_ms = (root[4] - root[3]) / 1e6
    values["bench.traced_wall_ms"] = traced_wall_ms
    # Both walls at the reference host speed: the two runs are minutes
    # apart on a host whose speed drifts.
    values["bench.trace_overhead_ratio"] = ratio(run.wall_s(), untraced_wall_s)

    run_for = times.get("core.framework.tick_other", [0, 0, 0, 0])
    sim_hours = (fw.clock.now_ns - run.inputs.t0_ns) / hours(1)
    consumers = (
        fw.redfish_consumer, fw.sensor_consumer, fw.syslog_consumer,
        fw.container_consumer, fw.console_consumer, fw.ldms_consumer,
    )
    values.update({
        "bus.records": sum(
            fw.broker.topic_stats(t)["total_produced"] for t in fw.broker.topics()
        ),
        "bus.backlog_peak": run.backlog_peak,
        "shasta.telemetry_api.fetches": calls("shasta.telemetry_api.fetch"),
        "core.consumers.records": sum(c.records_processed for c in consumers),
        "core.consumers.records_failed": sum(c.records_failed for c in consumers),
        "core.framework.wall_s_per_sim_hour": ratio(run_for[1] / 1e9, sim_hours),
        "omni.warehouse.calls": (
            calls("omni.warehouse.ingest_log") + calls("omni.warehouse.ingest_metric")
        ),
        "loki.store.entries": fw.warehouse.loki.stats.entries_ingested,
        "loki.store.selects": calls("loki.store.select"),
        "loki.chunks.reads": calls("loki.chunks.read"),
        "loki.chunks.decoded_per_returned": ratio(
            times.get("loki.chunks.decode", [0, 0, 0, 0])[3],
            times.get("loki.chunks.read", [0, 0, 0, 0])[3],
        ),
        "loki.ruler.evals": calls("loki.ruler.eval"),
        "loki.compression_ratio": fw.warehouse.loki.compression_ratio(),
        "tsdb.samples": fw.warehouse.tsdb.sample_count(),
        "tsdb.vmagent.scrapes": fw.vmagent.scrapes_done,
        "exporters.targets": len(fw.vmagent.targets()),
        "alerting.events": fw.alertmanager.events_received,
        "alerting.notifications": fw.alertmanager.notifications_sent,
        "alerting.notifications_failed": fw.alertmanager.notifications_failed,
        "servicenow.incidents": len(fw.servicenow.incidents()),
        "slackmock.messages": len(fw.slack.messages),
    })
    published = run.bytes_published
    if fw.admission is not None:
        counters = fw.admission.counters.values()
        values["tenancy.admission.rejected"] = sum(
            c.pushes_rejected + c.entries_discarded for c in counters
        )
    if fw.ring is not None:
        d = fw.ring.distributor
        values["ring.distributor.pushes"] = d.pushes
        values["ring.replica_writes"] = d.replica_writes_ok
        values["ring.replica_writes_failed"] = d.replica_writes_failed
        values["ring.wal.bytes_per_log_byte"] = ratio(
            sum(i.wal.size_bytes() for i in fw.ring.ingesters.values()), published
        )
    if fw.frontend is not None:
        values["loki.frontend.cache_hit_ratio"] = fw.frontend.hit_rate()
    if fw.pattern_ingester is not None:
        values["patterns.lines_mined"] = fw.pattern_ingester.lines_observed
        values["patterns.templates"] = fw.pattern_store.pattern_count()
    if fw.objstore is not None:
        ship = fw.shipper.counters()
        values["objstore.chunks_shipped"] = ship["chunks_shipped"]
        values["objstore.chunks_deduped"] = ship["chunks_deduped"]
        values["objstore.compactor.runs"] = calls("objstore.compactor.run")
        values["objstore.gateway.skip_ratio"] = fw.store_gateway.skip_ratio()
        values["objstore.put_bytes_per_log_byte"] = ratio(
            fw.objstore.counters()["bytes_in"], published
        )
    if fw.queryx is not None:
        stats = fw.queryx.stats()
        values["queryx.subqueries_per_query"] = ratio(
            stats["subqueries_total"], stats["queries_total"]
        )
        # The engine's own *accounted* sim-clock figure, shown beside the
        # real ms above; never a result.
        values["queryx.accounted_speedup"] = stats["speedup"]
    if fw.selfheal is not None:
        values["selfheal.repairer.sweeps"] = calls("selfheal.repairer.sweep")
    if fw.slo_manager is not None:
        values["slo.recording_samples"] = fw.slo_manager.recording.samples_recorded
    if fw.journal is not None:
        values["resilience.deliveries_pending"] = fw.journal.stats()["pending"]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"values without a per-layer metric: {unknown}")
    return {name: float(values.get(name, 0.0)) for name in names}
