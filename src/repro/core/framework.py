"""The integrated monitoring framework — the paper's Figure 1, assembled.

One object wires the full pipeline:

  sensors/Redfish/FM → HMS collector → Kafka → Telemetry API → k3s pods
  → { Loki (logs), VictoriaMetrics (metrics) } inside OMNI
  → { Ruler, vmalert } → Alertmanager → { Slack, ServiceNow }
  → Grafana dashboards over both stores.

Everything runs on one simulated clock; ``run_for`` advances the world.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.common.errors import ValidationError
from repro.common.labels import Matcher, MatchOp
from repro.common.simclock import Job, SimClock, hours, minutes, seconds
from repro.alerting.alertmanager import Alertmanager, Route
from repro.alerting.rules import RULE_FOR, RuleSpec
from repro.bus.broker import Broker
from repro.cluster.facility import FacilityModel
from repro.cluster.faults import FaultInjector
from repro.cluster.gpfs import GpfsFilesystem, GpfsModel
from repro.cluster.sensors import build_standard_bank
from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.correlation import RootCauseAnalyzer
from repro.core.consumers import (
    LdmsConsumer,
    LogLineConsumer,
    RedfishEventConsumer,
    SensorMetricConsumer,
)
from repro.core.faults import register_faults
from repro.core.plane import env_flag
from repro.exporters.aruba import ArubaExporter
from repro.exporters.blackbox import BlackboxExporter, ProbeTarget
from repro.exporters.kafka_exporter import KafkaExporter
from repro.exporters.node import NodeExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import (
    LogsPanel,
    StatPanel,
    TimeSeriesPanel,
    TopListPanel,
    TracePanel,
)
from repro.loki.logql.engine import LogQLEngine
from repro.loki.ruler import Ruler
from repro.loki.store import LokiStore
from repro.omni.eventstore import EventStore, record_from_alert
from repro.omni.lifecycle import SWEEP_INTERVAL_NS, Lifecycle
from repro.omni.warehouse import OmniWarehouse
from repro.servicenow.alerts import SnAlertState
from repro.servicenow.cmdb import build_from_cluster
from repro.servicenow.platform import ServiceNowPlatform, ServiceNowReceiver
from repro.servicenow.service_map import ServiceMap
from repro.shasta.fabric_manager import (
    FabricManager,
    FabricManagerMonitor,
    MONITOR_APP_LABEL,
    SwitchEvent,
)
from repro.shasta.console import ConsoleCollector, TOPIC_CONSOLE_LOGS
from repro.shasta.hms import (
    HmsCollector,
    TOPIC_CONTAINER_LOGS,
    TOPIC_REDFISH_EVENTS,
    TOPIC_SENSOR_TELEMETRY,
    TOPIC_SYSLOG,
)
from repro.shasta.ldms import LdmsAggregator
from repro.shasta.redfish import RedfishEventSource
from repro.shasta.telemetry_api import TelemetryAPI
from repro.slackmock.webhook import SlackReceiver, SlackWebhook
from repro.tempo.instrument import PipelineTracing, TracingReceiver
from repro.tempo.metrics import TraceMetricsExporter
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer
from repro.tempo.traceql.engine import TraceQLEngine
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.vmagent import ScrapeTarget, VMAgent
from repro.tsdb.vmalert import VMAlert
from repro.common.jsonutil import LogEnvelopeEncoder

if TYPE_CHECKING:
    from repro.tenancy.limits import TenantLimits


#: The paper's Figure-8 switch-offline pattern (§IV.B).
SWITCH_PATTERN = "[<severity>] problem:<problem>, xname:<xname>, state:<state>"

#: The paper's Figure-5 leak query, over the live-alerting window.
LEAK_QUERY = (
    'sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" '
    "| json [60m])) by (Severity, cluster, Context, MessageId, Message)"
)
#: Same shape with a short window, used for the alerting rule so alerts
#: resolve promptly once the condition clears (the 60m figure window would
#: hold the alert up for an hour).
LEAK_RULE_QUERY = (
    'sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" '
    "| json [5m])) by (Context, cluster)"
)
SWITCH_RULE_QUERY = (
    'sum(count_over_time({app="fabric_manager_monitor"} '
    '|= "fm_switch_offline" | pattern "' + SWITCH_PATTERN + '" [5m])) '
    "by (severity, problem, xname, state)"
)
#: NodeHotTemperature fires above this node temperature (°C).
HOT_NODE_THRESHOLD_C = 90.0


@dataclass
class FrameworkConfig:
    """What a program sets, with production-plausible defaults: the
    plane flags, deployment settings, operator policy and values a
    program caller sets or reads.  Every other setting is its
    component's own default (DESIGN §16)."""

    cluster_spec: ClusterSpec = field(default_factory=ClusterSpec)
    cluster_name: str = "perlmutter"
    seed: int = 0
    # §II/§III.D "machine learning methods for proactive incident
    # response" (repro.omni.plane): EWMA anomaly scanning over key
    # metrics into Alertmanager.  Off by default, with no env default.
    enable_proactive_detection: bool = False
    # Self-tracing of the pipeline (repro.tempo): the head-sampling rate
    # of the tracer every config builds.  0.0 = off: the tracer records
    # and counts nothing, and the tempo.metrics job and the "Pipeline
    # Tracing" dashboard are not built.
    tracing_sampling: float = 0.0
    # Replicated ingest (repro.ring).  Off by default: logs land in a
    # single LokiStore as before.  On: pushes go through a distributor to
    # a consistent-hash ring of WAL-backed ingesters at write quorum.
    enable_ingest_ring: bool = False
    ring_ingesters: int = 4
    #: Availability zones the ring ingesters spread over (round-robin).
    #: 0 = unzoned; > 0 also turns on zone-aware replica placement.
    ring_zones: int = 0
    # Self-healing (repro.selfheal).  Off by default (or via the
    # REPRO_SELF_HEAL env var, for CI's self-healing leg).  On — and
    # only meaningful with the ingest ring also on — a heartbeat-driven
    # failure detector moves ring members through ACTIVE → SUSPECT →
    # DEAD → FORGOTTEN, the distributor routes writes/reads around
    # unhealthy members, a supervisor restarts crashed-but-recoverable
    # ingesters with capped exponential backoff, and an anti-entropy
    # repairer re-replicates a permanently lost member's streams onto
    # the surviving ring owners before releasing its tokens.
    enable_self_healing: bool = field(default_factory=env_flag("REPRO_SELF_HEAL"))
    # At-least-once alert delivery (repro.resilience).  Off by default
    # (or via the REPRO_RELIABLE_DELIVERY env var, for CI's second leg):
    # receivers are called directly and a failure loses the notification.
    # On: consumers commit offsets only after processing (poison records
    # quarantine to per-topic DLQs), and every notification is journaled
    # and retried with backoff + circuit breaking until delivered, with
    # idempotency keys preventing duplicate incidents/posts.
    enable_reliable_delivery: bool = field(
        default_factory=env_flag("REPRO_RELIABLE_DELIVERY")
    )
    # Multi-tenancy (repro.tenancy).  Off by default (or via the
    # REPRO_MULTI_TENANCY env var, for CI's tenancy leg): the stack is
    # single-tenant exactly as before.  On: every log push is attributed
    # to a tenant, tagged with the ``tenant`` stream label, limit-checked
    # at admission (typed 429s on overdraw), shuffle-sharded onto the
    # ingest ring when the ring is enabled, and queried through a fair
    # per-tenant scheduler in front of the split/cache frontend.
    enable_multi_tenancy: bool = field(default_factory=env_flag("REPRO_MULTI_TENANCY"))
    tenant_overrides: dict[str, TenantLimits] = field(default_factory=dict)
    #: Ingesters per tenant shard when the ingest ring is also enabled;
    #: 0 disables shuffle sharding (every tenant uses the whole ring).
    tenant_shard_size: int = 3
    # Tiered object storage (repro.objstore).  Off by default (or via
    # the REPRO_OBJECT_STORAGE env var, for CI's object-storage leg):
    # chunks stay resident in ingester memory forever, exactly as
    # before.  On: a shipper periodically seals aged chunks and uploads
    # them to a simulated S3 bucket behind a period-partitioned index
    # (replica copies deduplicate by content hash), freeing hot memory;
    # a compactor merges small objects; queries merge
    # recent-from-ingester with cold-from-gateway transparently.
    enable_object_storage: bool = field(
        default_factory=env_flag("REPRO_OBJECT_STORAGE")
    )
    objstore_flush_interval_ns: int = minutes(5)
    objstore_compaction_interval_ns: int = minutes(30)
    # Sharded parallel query engine (repro.queryx).  Off by default (or
    # via the REPRO_QUERY_ENGINE env var, for CI's query-engine leg):
    # queries run monolithically on one LogQL engine as before.  On:
    # range queries are planned into time-split × stream-shard
    # subqueries, fanned out across a pool of simulated querier workers
    # (accounted wall-clock = busiest worker, not the sum) and merged
    # back exactly; when object storage is also on, the compactor builds
    # per-stream n-gram bloom blocks and the store-gateway uses them to
    # skip cold chunks that cannot match a line filter.
    enable_query_engine: bool = field(default_factory=env_flag("REPRO_QUERY_ENGINE"))
    #: Time-split interval of the queryx planner and of tenancy's
    #: frontend cache, so both cut a range at identical aligned boundaries.
    queryx_split_interval_ns: int = hours(1)
    # Online log-template mining (repro.patterns).  Off by default (or
    # via the REPRO_PATTERNS env var, for CI's pattern-mining leg).  On:
    # a Drain-style miner tees off every accepted log push per (tenant,
    # stream), maintaining templates with content-derived pattern ids;
    # period-partitioned pattern blocks persist through the object store
    # beside the chunks (when object storage is on) and the compactor
    # rebuilds them cold; ``detected_patterns`` is served through the
    # LogQL engine and logcli; and a pattern ruler emits self-resolving
    # PatternBurst / NovelErrorPattern alerts whose ``pattern_id`` label
    # lets Alertmanager collapse an alert storm into one grouped incident.
    enable_pattern_mining: bool = field(default_factory=env_flag("REPRO_PATTERNS"))
    # Service-level objectives (repro.slo).  Off by default (or via the
    # REPRO_SLO env var, for CI's SLO leg).  On: built-in SLOs for
    # ingest availability, query latency (query engine on), alert
    # delivery (reliable delivery on) and pattern-detection freshness
    # (pattern mining on) are registered with an SloManager; burn-rate
    # recording rules persist derived series back into the TSDB, vmalert
    # runs Google-SRE-workbook multi-window multi-burn-rate rules over
    # them, pages (severity=critical) open ServiceNow incidents while
    # slow-burn tickets only annotate, and budget exhaustion escalates
    # as a critical incident with the burn history attached.
    enable_slo: bool = field(default_factory=env_flag("REPRO_SLO"))
    #: Per-SLO objective overrides on top of DEFAULT_SLO_OBJECTIVES.
    slo_objectives: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject what construction or ``start()`` would trip over.  Public
        because the dataclass is mutable: ``start()`` checks again."""
        from repro.core.planes import PLANES  # plane modules import repro.core

        if not 0.0 <= self.tracing_sampling <= 1.0:
            raise ValidationError("tracing_sampling must be in [0, 1]")
        # Every cadence ends up in SimClock.every, which refuses zero
        # half-way through start(); plane cadences count on or off.
        for f in fields(self):
            if f.name.endswith("_interval_ns") and getattr(self, f.name) <= 0:
                raise ValidationError(f"{f.name} must be positive")
        for plane in PLANES:
            if plane.enabled(self):
                plane.validate(self)


class MonitoringFramework:
    """The assembled stack. Construct, :meth:`start`, then advance time.

    The Fig. 1 base stack is built here; everything a feature plane adds
    is built by its :class:`~repro.core.plane.Plane`, called in plane
    order at each point the data flow allows (DESIGN §16).
    """

    def __init__(
        self, config: FrameworkConfig | None = None, clock: SimClock | None = None
    ) -> None:
        from repro.core.planes import PLANES  # plane modules import repro.core

        self.config = config or FrameworkConfig()
        self.clock = clock or SimClock()
        cfg = self.config
        #: The planes this config switches on, in plane order.
        self.planes = [plane for plane in PLANES if plane.enabled(cfg)]
        # A disabled plane's components read None.
        for plane in PLANES:
            for name in plane.components:
                setattr(self, name, None)

        # --- the machine ------------------------------------------------
        self.cluster = Cluster(cfg.cluster_spec)
        self.sensors = build_standard_bank(self.cluster, seed=cfg.seed)
        self.faults = FaultInjector(self.cluster, self.clock, self.sensors)
        self.gpfs = GpfsModel(
            [GpfsFilesystem("scratch"), GpfsFilesystem("community")],
            seed=cfg.seed + 7,
        )
        self.facility = FacilityModel(
            [str(x) for x in sorted(self.cluster.cabinets)], seed=cfg.seed + 11
        )

        # --- self-tracing (repro.tempo) ---------------------------------
        self.traces = TraceStore()
        self.tracer = Tracer(
            self.traces,
            self.clock,
            sampling=cfg.tracing_sampling,
            seed=cfg.seed + 23,
        )
        self.traceql = TraceQLEngine(self.traces)
        self.tracing = PipelineTracing(self.tracer)

        # --- the Shasta telemetry plane -----------------------------------
        self.broker = Broker(self.clock)
        # Both log producers below share it: a stream's labels are
        # encoded once, whichever topic its lines go to.
        self._envelopes = LogEnvelopeEncoder()
        self.redfish_source = RedfishEventSource(self.cluster, self.clock)
        self.hms = HmsCollector(
            self.broker, self.clock, self.redfish_source, self.sensors,
            tracer=self.tracer,
        )
        self.telemetry_api = TelemetryAPI(self.broker, servers=2)
        self.telemetry_api.register_client("nersc-k3s", "token-nersc-k3s")
        self.console = ConsoleCollector(
            self.broker, self.clock, sorted(self.cluster.nodes),
            cluster=cfg.cluster_name, seed=cfg.seed + 13,
        )
        self.ldms = LdmsAggregator(
            self.broker, self.clock, self.cluster,
            seed=cfg.seed + 17, cluster_name=cfg.cluster_name,
        )

        # --- OMNI: the stores ------------------------------------------------
        #: The log store the warehouse will own: a single LokiStore until
        #: a plane replaces it (the ring) or wraps it (the cold tier).
        self.log_backend = LokiStore()
        for plane in self.planes:
            plane.build_stores(self)
        self.warehouse = OmniWarehouse(
            self.clock, loki=self.log_backend, admission=self.admission,
            patterns=self.pattern_ingester,
        )
        register_faults(self.faults, self.warehouse, self.gpfs)
        #: The one retention path: each sweep archives aged log chunks,
        #: downsamples aged metrics and expires broker topics.
        self.lifecycle = Lifecycle(
            self.clock, self.warehouse.loki, self.warehouse.tsdb, self.broker,
            self.tracer,
        )
        self.logql = LogQLEngine(self.warehouse.loki, patterns=self.pattern_store)
        self.promql = PromQLEngine(self.warehouse.tsdb)
        self.trace_metrics = TraceMetricsExporter(
            self.traces, self.warehouse.tsdb, self.clock,
            cluster=cfg.cluster_name,
        )

        # --- the k3s consumer pods -------------------------------------------
        token = "token-nersc-k3s"
        pod = dict(tracing=self.tracing, reliable=cfg.enable_reliable_delivery)
        self.redfish_consumer = RedfishEventConsumer(
            self.telemetry_api, token, TOPIC_REDFISH_EVENTS, self.warehouse,
            cluster=cfg.cluster_name, **pod,
        )
        self.sensor_consumer = SensorMetricConsumer(
            self.telemetry_api, token, TOPIC_SENSOR_TELEMETRY, self.warehouse,
            cluster=cfg.cluster_name, **pod,
        )
        self.syslog_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_SYSLOG, self.warehouse, **pod
        )
        self.container_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_CONTAINER_LOGS, self.warehouse, **pod
        )
        self.console_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_CONSOLE_LOGS, self.warehouse, **pod
        )
        self.ldms_consumer = LdmsConsumer(
            self.telemetry_api, token, self.warehouse, **pod
        )
        #: The broker-fed pods by name, in pump order.
        self.consumers = {
            "redfish": self.redfish_consumer,
            "sensor": self.sensor_consumer,
            "syslog": self.syslog_consumer,
            "container": self.container_consumer,
            "console": self.console_consumer,
            "ldms": self.ldms_consumer,
        }

        # --- fabric manager + NERSC monitor ------------------------------------
        self.fabric_manager = FabricManager(self.cluster)
        self.fm_monitor = FabricManagerMonitor(
            self.fabric_manager,
            self.clock,
            sink=self._fm_sink,
            cluster_name=cfg.cluster_name,
        )

        # --- vmagent + exporters -------------------------------------------------
        self.vmagent = VMAgent(self.warehouse.tsdb, self.clock)
        self.node_exporter = NodeExporter(self.cluster, self.sensors)
        self.kafka_exporter = KafkaExporter(self.broker)
        self.aruba_exporter = ArubaExporter(seed=cfg.seed + 3)
        self.blackbox_exporter = BlackboxExporter(
            [
                ProbeTarget("telemetry-api", lambda: (True, 0.012)),
                ProbeTarget("loki-gateway", lambda: (True, 0.004)),
            ]
        )
        for target in (
            ScrapeTarget("node", "node-exporter:9100", self.node_exporter),
            ScrapeTarget("kafka", "kafka-exporter:9308", self.kafka_exporter),
            ScrapeTarget("aruba", "aruba-exporter:9101", self.aruba_exporter),
            ScrapeTarget("blackbox", "blackbox-exporter:9115", self.blackbox_exporter),
        ):
            self.vmagent.add_target(target)

        # --- alerting plane ---------------------------------------------------------
        self.slack = SlackWebhook()
        cmdb = build_from_cluster(self.cluster, cfg.cluster_name)
        # Facility plant joins the CMDB so CDU/PDU incidents map to CIs.
        for cdu_name in self.facility.cdus:
            cmdb.add(cdu_name, "cmdb_ci_cooling", parent=cfg.cluster_name)
        for pdu_name in self.facility.pdus:
            cmdb.add(pdu_name, "cmdb_ci_pdu", parent=cfg.cluster_name)
        self.servicenow = ServiceNowPlatform(self.clock, cmdb=cmdb)
        by_alert = ("alertname", "cluster")
        child_routes = [
            Route(
                "servicenow",
                matchers=(Matcher("severity", MatchOp.EQ, "critical"),),
                group_by=by_alert,
                continue_=True,
            ),
            Route("slack", group_by=by_alert),
        ]
        # Route order is contract (first match wins).  Plane routes sit
        # between the ServiceNow route and the catch-all, a later plane's
        # ahead of an earlier one's.
        for plane in self.planes:
            child_routes[1:1] = plane.routes(self)
        self.alertmanager = Alertmanager(
            self.clock, Route("slack", group_by=by_alert, routes=child_routes)
        )
        self.dashboards = self._build_dashboards()
        receivers = [
            TracingReceiver(receiver, self.tracing)
            for receiver in (
                SlackReceiver(
                    self.slack,
                    dashboard_base_url=self.dashboards["overview"].url(),
                ),
                ServiceNowReceiver(self.servicenow),
            )
        ]
        for plane in self.planes:
            receivers = plane.wrap_receivers(self, receivers)
        for receiver in receivers:
            self.alertmanager.register_receiver(receiver)
        self.ruler = Ruler(self.logql, self.clock, self.notifier("ruler"))
        self.vmalert = VMAlert(self.promql, self.clock, self.notifier("vmalert"))
        for plane in self.planes:
            plane.build_alerting(self)
        for plane in self.planes:
            for job, instance, component in plane.scrape_targets:
                self.vmagent.add_target(
                    ScrapeTarget(job, instance, getattr(self, component))
                )
        self._install_default_rules()

        #: OMNI's event archive (paper §III.C: "anything that has a
        #: start and end time"); SN alerts are mirrored in periodically.
        self.eventstore = EventStore()
        # Alert number -> the state last mirrored into the archive.
        self._mirrored_alert_states: dict[str, SnAlertState] = {}

        self._started = False

    # ------------------------------------------------------------------
    # What the planes build with
    # ------------------------------------------------------------------
    def notifier(self, generator: str):
        """Alertmanager's front door for one rule evaluator, traced under
        the evaluator's name."""
        return self.tracing.notifier(self.alertmanager.receive, generator)

    # ------------------------------------------------------------------
    # Wiring details
    # ------------------------------------------------------------------
    def _fm_sink(self, event: SwitchEvent) -> None:
        """The FM monitor pushes its event lines straight to Loki."""
        labels = {"app": MONITOR_APP_LABEL, "cluster": self.config.cluster_name}
        # The FM monitor bypasses the broker, so its trace starts at the
        # event and goes straight to the store write; the switch alert
        # correlates back via the xname label.
        tracer = self.tracing.tracer
        tracer.current = tracer.record(
            "fabric_manager",
            "switch_event",
            start_ns=event.timestamp_ns,
            attributes={"xname": event.xname, "state": event.state},
        )
        try:
            self.warehouse.ingest_log(labels, event.timestamp_ns, event.to_line())
            self.tracing.store_span("loki", "push", [{"xname": event.xname}])
        finally:
            tracer.current = None

    def _scrape_gpfs(self) -> None:
        """GPFS health (paper §V future work) lands as metrics."""
        now = self.clock.now_ns
        for sample in self.gpfs.sample_all():
            labels = {"fs": sample.fs_name, "cluster": self.config.cluster_name}
            self.warehouse.ingest_metric("gpfs_write_mb_s", labels, sample.write_mb_s, now)
            self.warehouse.ingest_metric("gpfs_read_mb_s", labels, sample.read_mb_s, now)
            self.warehouse.ingest_metric("gpfs_iops", labels, sample.iops, now)
            self.warehouse.ingest_metric(
                "gpfs_crc_errors_total", labels, float(sample.crc_errors), now
            )
            self.warehouse.ingest_metric(
                "gpfs_unhealthy_nsds", labels, float(sample.unhealthy_nsds), now
            )
            self.warehouse.ingest_metric(
                "gpfs_healthy", labels, 1.0 if sample.healthy else 0.0, now
            )

    def _install_default_rules(self) -> None:
        self.ruler.add_rule(
            RuleSpec(
                name="PerlmutterCabinetLeak",
                expr=LEAK_RULE_QUERY + " > 0",
                for_=RULE_FOR,
                labels={"severity": "critical", "category": "facility"},
                annotations={
                    "summary": "Coolant leak detected in {{ $labels.Context }} "
                    "on {{ $labels.cluster }}",
                },
            )
        )
        self.ruler.add_rule(
            RuleSpec(
                name="SwitchOffline",
                expr=SWITCH_RULE_QUERY + " > 0",
                for_=RULE_FOR,
                labels={"severity": "critical", "category": "network"},
                annotations={
                    "summary": "Rosetta switch {{ $labels.xname }} entered state "
                    "{{ $labels.state }}",
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="NodeDown",
                expr="node_up == 0",
                for_=RULE_FOR,
                labels={"severity": "critical", "category": "compute"},
                annotations={"summary": "Node {{ $labels.xname }} is down"},
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="NodeHotTemperature",
                expr=f"node_temp_celsius > {HOT_NODE_THRESHOLD_C:g}",
                for_="5m",
                labels={"severity": "warning", "category": "compute"},
                annotations={
                    "summary": "Node {{ $labels.xname }} temperature is "
                    "{{ $value }} C"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="KafkaConsumerLag",
                expr="kafka_consumergroup_lag > 10000",
                for_="5m",
                labels={"severity": "warning", "category": "pipeline"},
                annotations={
                    "summary": "Consumer group {{ $labels.consumergroup }} lag "
                    "is {{ $value }}"
                },
            )
        )
        self.ruler.add_rule(
            RuleSpec(
                name="NodeKernelPanic",
                expr=(
                    'sum(count_over_time({data_type="console_log"} '
                    '|= "Kernel panic" [5m])) by (hostname, cluster) > 0'
                ),
                for_="0s",  # a panic needs no sustain window
                labels={"severity": "critical", "category": "compute"},
                annotations={
                    "summary": "Kernel panic on {{ $labels.hostname }} console"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="CduLowFlow",
                expr="facility_cdu_flow_lpm < 200",
                for_=RULE_FOR,
                labels={"severity": "critical", "category": "facility"},
                annotations={
                    "summary": "CDU {{ $labels.cdu }} coolant flow down to "
                    "{{ $value }} LPM"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="FacilityHumidityHigh",
                expr="facility_room_humidity_percent > 65",
                for_="10m",
                labels={"severity": "warning", "category": "facility"},
                annotations={
                    "summary": "Machine-room humidity at {{ $value }}%"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="PduBreakerOpen",
                expr="facility_pdu_load_kw == 0",
                for_=RULE_FOR,
                labels={"severity": "critical", "category": "facility"},
                annotations={
                    "summary": "PDU {{ $labels.pdu }} carries no load "
                    "(breaker open?)"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="TelemetrySilent",
                expr='absent(shasta_temperature_celsius)',
                for_="10m",
                labels={"severity": "critical", "category": "pipeline"},
                annotations={
                    "summary": "No Shasta sensor telemetry arriving — "
                    "the collection pipeline itself is down"
                },
            )
        )
        # Rule order within an evaluator is contract: two rules going
        # FIRING in one evaluation notify in this order.  The planes'
        # rules follow the base rules; GpfsDegraded keeps the trailing
        # slot it has always had.
        for plane in self.planes:
            plane.install_rules(self)
        self.vmalert.add_rule(
            RuleSpec(
                name="GpfsDegraded",
                expr="gpfs_unhealthy_nsds > 0",
                for_=RULE_FOR,
                labels={"severity": "critical", "category": "storage"},
                annotations={
                    "summary": "GPFS {{ $labels.fs }} has {{ $value }} "
                    "unhealthy NSD servers"
                },
            )
        )

    def _build_dashboards(self) -> dict[str, Dashboard]:
        overview = Dashboard("Perlmutter Monitoring Overview", uid="perlmutter-overview")
        overview.add_rows(
            self.logql,
            [
                (LogsPanel, "Redfish events", '{data_type="redfish_event"}'),
                (TimeSeriesPanel, "CabinetLeakDetected (count_over_time 60m)", LEAK_QUERY),
                (LogsPanel, "Fabric manager events", '{app="fabric_manager_monitor"}'),
            ],
        )
        overview.add_rows(
            self.promql,
            [
                (StatPanel, "Nodes up", "sum(node_up)"),
                (StatPanel, "Max node temp", "max(node_temp_celsius)", {"unit": " C"}),
                (TopListPanel, "Hottest nodes", "topk(5, node_temp_celsius)", {"unit": " C"}),
            ],
        )
        dashboards = {"overview": overview}
        for plane in self.planes:
            for key, title, rows in plane.dashboards(self):
                dashboards[key] = Dashboard(title).add_rows(self.promql, rows)
        if self.tracer.sampling > 0.0:
            tracing = Dashboard("Pipeline Tracing", uid="pipeline-tracing")
            tracing.add_rows(
                self.traceql,
                [(TracePanel, "Slowest delivered alert", '{ span.service = "alertmanager" }')],
            )
            tracing.add_rows(
                self.promql,
                [
                    (
                        TimeSeriesPanel,
                        "Pipeline stage latency p99",
                        "tempo_stage_latency_p99_seconds",
                    )
                ],
            )
            dashboards["tracing"] = tracing
        return dashboards

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> list[Job]:
        """Every periodic, in registration order: the order jobs due on
        the same instant run in.  The base stack's come first, then each
        plane's in plane order; the lifecycle sweep is last, so it sees
        every other job's writes at its instant."""
        jobs = [
            Job("hms.events", seconds(10), self.hms.collect_events),
            Job("hms.sensors", seconds(60), self._sample_sensors),
            Job("fm.poll", seconds(30), self.fm_monitor.poll_once),
            Job("consumers.pump", seconds(10), self._pump_consumers),
            Job("vmagent.scrape", seconds(60), self._scrape_tick),
            Job("gpfs.scrape", seconds(60), self._scrape_gpfs),
            Job("console.chatter", seconds(60), self.console.emit_chatter),
            Job("ldms.sample", seconds(60), self.ldms.sample_once),
            Job("facility.sample", seconds(60), self._sample_facility),
            Job("ruler.eval", seconds(30), self.ruler.evaluate_all),
            Job("vmalert.eval", seconds(30), self.vmalert.evaluate_all),
        ]
        if self.tracer.sampling > 0.0:
            jobs.append(Job("tempo.metrics", seconds(60), self.trace_metrics.export))
        for plane in self.planes:
            jobs += plane.jobs(self)
        jobs.append(Job("alerts.mirror", minutes(1), self._mirror_alert_events))
        jobs.append(Job("lifecycle.sweep", SWEEP_INTERVAL_NS, self.lifecycle.sweep))
        return jobs

    def start(self) -> None:
        """Register :attr:`jobs` on the clock (idempotent).

        All or nothing: the mutable config is validated again first, so a
        cadence zeroed since construction raises here, not from
        ``SimClock.every`` with half the jobs already registered."""
        if self._started:
            return
        self.config.validate()
        for job in self.jobs:
            self.clock.every(job.interval_ns, job.run)
        self._started = True

    def _mirror_alert_events(self) -> None:
        """Mirror the ServiceNow alerts whose state changed since the
        last pass.  An unchanged alert is left alone: re-visiting a
        closed one would close whatever event a *later* alert has since
        opened on the same CI."""
        for alert in self.servicenow.alerts():
            if self._mirrored_alert_states.get(alert.number) is alert.state:
                continue
            record_from_alert(self.eventstore, alert, self.clock.now_ns)
            self._mirrored_alert_states[alert.number] = alert.state

    def service_map(self) -> str:
        """The live, alert-aware service topology view (paper §III.D)."""
        smap = ServiceMap(self.servicenow.cmdb, self.config.cluster_name)
        return smap.render(self.servicenow.alerts())

    def root_cause_report(self):
        """Correlate the currently-active alerts into probable root
        causes (paper §I: "real-time automated root cause analysis")."""
        analyzer = RootCauseAnalyzer(self.cluster, self.facility)
        return analyzer.analyze(self.alertmanager.active_alerts())

    def _sample_sensors(self) -> None:
        self.sensors.step()
        self.hms.collect_sensors()

    def _pump_consumers(self) -> None:
        for consumer in self.consumers.values():
            consumer.pump()

    def _sample_facility(self) -> None:
        """Environmental/facility series (paper §III.C) land as metrics."""
        sample = self.facility.sample(self.clock.now_ns)
        for name, labels, value in sample.flat_metrics():
            self.warehouse.ingest_metric(
                name, {**labels, "cluster": self.config.cluster_name},
                value, sample.timestamp_ns,
            )

    def _scrape_tick(self) -> None:
        self.aruba_exporter.step()
        self.vmagent.scrape_all()

    def run_for(self, duration_ns: int) -> None:
        """Advance the simulated world."""
        if not self._started:
            self.start()
        self.clock.advance(duration_ns)

    # ------------------------------------------------------------------
    # Log producers (rsyslog aggregators / container runtime)
    # ------------------------------------------------------------------
    def publish_syslog(self, labels: dict[str, str], timestamp_ns: int, line: str) -> None:
        """What an rsyslogd aggregator does: envelope into the syslog topic."""
        self.broker.produce(
            TOPIC_SYSLOG,
            self._envelopes.encode(labels, timestamp_ns, line),
            labels.get("hostname"),
            timestamp_ns,
        )

    def publish_container_log(
        self, labels: dict[str, str], timestamp_ns: int, line: str
    ) -> None:
        self.broker.produce(
            TOPIC_CONTAINER_LOGS,
            self._envelopes.encode(labels, timestamp_ns, line),
            labels.get("app"),
            timestamp_ns,
        )

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def health_summary(self) -> dict[str, float]:
        """One-call status used by examples and integration tests."""
        summary = {
            "messages_ingested": float(self.warehouse.messages_ingested),
            "log_streams": float(self.warehouse.loki.stream_count()),
            "metric_series": float(self.warehouse.tsdb.series_count()),
            "alert_events": float(self.alertmanager.events_received),
            "notifications": float(self.alertmanager.notifications_sent),
            "notifications_failed": float(self.alertmanager.notifications_failed),
            "slack_messages": float(len(self.slack.messages)),
            "sn_incidents": float(len(self.servicenow.incidents())),
        }
        for plane in self.planes:
            summary.update(plane.health(self))
        return summary
