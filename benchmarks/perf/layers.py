"""Per-layer attribution from outside the program.

The traced run wraps the public methods listed in :data:`BOUNDARIES` *on
the classes*, before the framework is constructed (periodic callbacks
are bound at ``start()``, so instance-level wrapping would miss them).
Nothing under ``src/`` is edited; tracing inside the program is a later
issue (ROADMAP 1(b)/5).

Each wrapped call records a span — id, parent, name, start, end — with
``perf_counter_ns``.  Boundaries crossed per entry or per sample (marked
``hot``) would make 10^5+ spans a run, so they, and every wrapped call
made beneath one, fold into ``(count, total, child total, items)`` rows
keyed by the enclosing span instead.  A layer's *self* time is its
spans' durations minus what their children cover, so self times of all
names add up to the root span exactly: one thread, nothing overlaps.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from time import perf_counter_ns

#: (module, class, method, span name, hot, sized).  ``sized`` adds
#: ``len(result)`` to the row's item count (decoded vs returned entries).
BOUNDARIES: tuple[tuple[str, str, str, str, bool, bool], ...] = (
    ("repro.core.framework", "MonitoringFramework", "run_for", "core.framework.tick_other", False, False),
    ("repro.core.framework", "MonitoringFramework", "publish_syslog", "core.framework.publish", True, False),
    ("repro.core.framework", "MonitoringFramework", "publish_container_log", "core.framework.publish", True, False),
    ("repro.bus.broker", "Broker", "produce", "bus.produce", True, False),
    ("repro.bus.broker", "Broker", "produce_batch", "bus.produce", True, False),
    ("repro.bus.broker", "Broker", "poll", "bus.poll", False, False),
    ("repro.shasta.telemetry_api", "TelemetryAPI", "fetch", "shasta.telemetry_api.fetch", False, False),
    ("repro.shasta.hms", "HmsCollector", "collect_events", "shasta.hms.collect", False, False),
    ("repro.shasta.hms", "HmsCollector", "collect_sensors", "shasta.hms.collect", False, False),
    ("repro.shasta.fabric_manager", "FabricManagerMonitor", "poll_once", "shasta.fm.poll", False, False),
    ("repro.shasta.ldms", "LdmsConsumer", "pump", "shasta.ldms.pump", False, False),
    ("repro.core.consumers", "_BaseConsumer", "pump", "core.consumers.pump", False, False),
    ("repro.omni.warehouse", "OmniWarehouse", "ingest_log", "omni.warehouse.ingest_log", True, False),
    ("repro.omni.warehouse", "OmniWarehouse", "ingest_logs", "omni.warehouse.ingest_log", True, False),
    ("repro.omni.warehouse", "OmniWarehouse", "ingest_metric", "omni.warehouse.ingest_metric", True, False),
    ("repro.tenancy.admission", "AdmissionController", "admit_push", "tenancy.admission.admit", True, False),
    ("repro.ring.distributor", "Distributor", "push", "ring.distributor.push", True, False),
    ("repro.ring.ingester", "Ingester", "push_stream", "ring.ingester.push", True, False),
    ("repro.ring.wal", "WriteAheadLog", "append", "ring.wal.append", True, False),
    ("repro.ring.cluster", "RingLokiCluster", "select", "ring.select", False, False),
    ("repro.loki.store", "LokiStore", "push_stream", "loki.store.push", True, False),
    ("repro.loki.store", "LokiStore", "select", "loki.store.select", False, False),
    ("repro.loki.chunks", "Chunk", "entries_between", "loki.chunks.read", True, True),
    ("repro.loki.chunks", "Chunk", "entries", "loki.chunks.decode", True, True),
    ("repro.loki.logql.engine", "LogQLEngine", "query_logs", "loki.logql.query", False, False),
    ("repro.loki.logql.engine", "LogQLEngine", "query_range", "loki.logql.query", False, False),
    ("repro.loki.logql.engine", "LogQLEngine", "query_instant", "loki.logql.query", False, False),
    ("repro.loki.ruler", "Ruler", "evaluate_all", "loki.ruler.eval", False, False),
    ("repro.loki.frontend", "QueryFrontend", "query_range", "loki.frontend.query", False, False),
    ("repro.patterns.ingester", "PatternIngester", "observe", "patterns.ingester.observe", True, False),
    ("repro.patterns.ruler", "PatternRuler", "evaluate_all", "patterns.ruler.eval", False, False),
    ("repro.patterns.store", "PatternStore", "persist_dirty", "patterns.store.persist", False, False),
    ("repro.objstore.shipper", "ChunkShipper", "flush", "objstore.shipper.flush", False, False),
    ("repro.objstore.compactor", "Compactor", "run", "objstore.compactor.run", False, False),
    ("repro.objstore.gateway", "StoreGateway", "select", "objstore.gateway.select", False, False),
    ("repro.queryx.engine", "ShardedQueryEngine", "query_range", "queryx.engine.query", False, False),
    ("repro.queryx.engine", "ShardedQueryEngine", "query_logs", "queryx.engine.query", False, False),
    ("repro.selfheal.repairer", "RingRepairer", "sweep", "selfheal.repairer.sweep", False, False),
    ("repro.selfheal.repairer", "RingRepairer", "under_replicated_streams", "selfheal.repairer.sweep", False, False),
    ("repro.selfheal.detector", "FailureDetector", "sweep", "selfheal.detector.sweep", False, False),
    ("repro.slo.manager", "SloManager", "tick", "slo.manager.tick", False, False),
    ("repro.tsdb.storage", "TimeSeriesStore", "ingest", "tsdb.storage.ingest", True, False),
    ("repro.tsdb.vmagent", "VMAgent", "scrape_all", "tsdb.vmagent.scrape", False, False),
    ("repro.tsdb.vmalert", "VMAlert", "evaluate_all", "tsdb.vmalert.eval", False, False),
    ("repro.tsdb.promql", "PromQLEngine", "query_instant", "tsdb.promql.query", False, False),
    ("repro.tsdb.promql", "PromQLEngine", "query_range", "tsdb.promql.query", False, False),
    ("repro.alerting.alertmanager", "Alertmanager", "receive", "alerting.alertmanager.receive", False, False),
    ("repro.resilience.receivers", "RetryingReceiver", "notify", "resilience.delivery", False, False),
    ("repro.servicenow.platform", "ServiceNowReceiver", "notify", "servicenow.notify", False, False),
    ("repro.slackmock.webhook", "SlackReceiver", "notify", "slackmock.notify", False, False),
    ("repro.grafana.dashboard", "Dashboard", "render", "grafana.dashboard.render", False, False),
)

#: Every ``scrape()`` under this package is wrapped as one name.
EXPORTERS_PACKAGE = "repro.exporters"
EXPORTERS_SPAN = "exporters.scrape"

ROOT = "bench.generator"

#: The end-to-end metric a per-layer metric's saving should show in, at
#: most by the layer's share of the blocking path (one thread, so shares
#: add).  First matching prefix wins; the prefix up to the first dot is the
#: layer, a package under ``src/repro/``.
MOVES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("ring.select", ("q_tail_p50_ms", "q_filter_p50_ms", "q_agg_p50_ms", "q_wide_p50_ms")),
    ("loki.store.push", ("ingest_msgs_per_s",)),
    ("loki.store.entries", ("ingest_msgs_per_s",)),
    ("loki.ruler", ("ingest_msgs_per_s",)),
    ("loki.compression", ("store_bytes_per_log_byte",)),
    ("loki.", ("q_wide_p50_ms", "q_agg_p50_ms", "q_filter_p50_ms")),
    ("objstore.gateway", ("q_wide_p50_ms", "q_filter_p50_ms")),
    ("objstore.put_bytes", ("store_bytes_per_log_byte",)),
    ("queryx.", ("q_wide_p50_ms", "q_agg_p50_ms", "q_tail_p50_ms")),
    # Reads, and the rule evaluations that run beside the writes.
    ("tsdb.promql", ("q_promql_p50_ms", "q_dash_p50_ms", "ingest_msgs_per_s")),
    ("grafana.", ("q_dash_p50_ms",)),
    ("alerting.", ("alert_latency_sim_s", "ingest_msgs_per_s")),
    ("resilience.", ("alert_latency_sim_s",)),
    ("servicenow.", ("alert_latency_sim_s",)),
    ("slackmock.", ("alert_latency_sim_s",)),
    ("bench.", ()),
    # Everything else sits on the write path.
    ("", ("ingest_msgs_per_s",)),
)


def moves(metric: str) -> tuple[str, ...]:
    return next(targets for prefix, targets in MOVES if metric.startswith(prefix))


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        #: (enclosing span id, immediate hot parent's name or None, name)
        #: -> [count, total_ns, child_ns, items]
        self.rows: dict[tuple[int, str | None, str], list[int]] = {}
        self.enabled = False
        # Frame: [name, child_ns, own span id or -1 if folded, enclosing span id]
        self._stack: list[list] = []
        self._next_id = 0

    # -- recording --------------------------------------------------------
    def wrap(self, fn, name: str, hot: bool = False, sized: bool = False):
        tracer = self
        spans, rows, stack = self.spans, self.rows, self._stack

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1]
            folded = hot or parent[2] < 0
            if folded:
                frame = [name, 0, -1, parent[3]]
            else:
                tracer._next_id += 1
                frame = [name, 0, tracer._next_id, tracer._next_id]
            stack.append(frame)
            items = 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    items = len(result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                parent[1] += duration
                if folded:
                    key = (parent[3], parent[0] if parent[2] < 0 else None, name)
                    row = rows.get(key)
                    if row is None:
                        rows[key] = [1, duration, frame[1], items]
                    else:
                        row[0] += 1
                        row[1] += duration
                        row[2] += frame[1]
                        row[3] += items
                else:
                    spans.append((frame[2], parent[2], name, start, end))

        return wrapper

    def phase(self, name: str, body):
        """Run one of the benchmark's own phases as a span."""
        return self.wrap(body, name)()

    def begin(self) -> None:
        """Start recording under a fresh root span."""
        self.spans.clear()
        self.rows.clear()
        self._next_id = 0
        self._stack[:] = [[ROOT, 0, 0, 0]]
        self._root_start = perf_counter_ns()
        self.enabled = True

    def end(self) -> None:
        self.enabled = False
        self.spans.append((0, -1, ROOT, self._root_start, perf_counter_ns()))
        del self._stack[:]

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for module, cls_name, method, name, hot, sized in BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, name, hot, sized)
        package = importlib.import_module(EXPORTERS_PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{EXPORTERS_PACKAGE}.{info.name}")
            for cls in vars(module).values():
                if (
                    isinstance(cls, type)
                    and cls.__module__ == module.__name__
                    and "scrape" in vars(cls)
                ):
                    self._patch(cls, "scrape", EXPORTERS_SPAN, False, False)

    def _patch(self, cls: type, method: str, name: str, hot: bool, sized: bool) -> None:
        # An inherited method (Ruler and VMAlert share
        # RuleEvaluator.evaluate_all) is wrapped on the subclass, so each
        # keeps its own name.
        setattr(cls, method, self.wrap(getattr(cls, method), name, hot, sized))

    # -- output -----------------------------------------------------------
    def dump(self, path, run_id: str) -> None:
        with open(path, "w") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "run": run_id, "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")
            for (enclosing, via, name), row in self.rows.items():
                out.write(json.dumps({
                    "run": run_id, "parent": enclosing, "via": via, "name": name,
                    "count": row[0], "total_ns": row[1], "child_ns": row[2],
                    "items": row[3],
                }) + "\n")


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans, rows) -> dict[str, list[int]]:
    """``{name: [calls, total_ns, self_ns, items]}`` over spans and rows.

    A span's self time is its duration minus the part of it that child
    spans cover (overlapping children are counted once) and minus the
    folded rows recorded directly beneath it.  A folded row's self time
    is its total minus the wrapped calls beneath it.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    folded_under: dict[int, int] = {}
    out: dict[str, list[int]] = {}
    for (enclosing, via, name), (count, total, child, items) in rows.items():
        if via is None:
            folded_under[enclosing] = folded_under.get(enclosing, 0) + total
        acc = out.setdefault(name, [0, 0, 0, 0])
        acc[0] += count
        acc[1] += total
        acc[2] += total - child
        acc[3] += items
    for sid, _parent, name, start, end in spans:
        covered = covered_ns(start, end, children.get(sid, ()))
        acc = out.setdefault(name, [0, 0, 0, 0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - covered - folded_under.get(sid, 0)
    return out
