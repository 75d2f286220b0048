"""The integrated monitoring framework — the paper's Figure 1, assembled.

One object wires the full pipeline:

  sensors/Redfish/FM → HMS collector → Kafka → Telemetry API → k3s pods
  → { Loki (logs), VictoriaMetrics (metrics) } inside OMNI
  → { Ruler, vmalert } → Alertmanager → { Slack, ServiceNow }
  → Grafana dashboards over both stores.

Everything runs on one simulated clock; ``run_for`` advances the world.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.labels import Matcher, MatchOp
from repro.common.simclock import NANOS_PER_DAY, SimClock, hours, minutes, seconds
from repro.alerting.alertmanager import Alertmanager, Route
from repro.alerting.rules import RuleSpec
from repro.bus.broker import Broker
from repro.cluster.facility import FacilityModel
from repro.cluster.faults import FaultInjector
from repro.cluster.gpfs import GpfsFilesystem, GpfsModel
from repro.cluster.sensors import build_standard_bank
from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.correlation import RootCauseAnalyzer
from repro.core.consumers import (
    LogLineConsumer,
    RedfishEventConsumer,
    SensorMetricConsumer,
)
from repro.exporters.aruba import ArubaExporter
from repro.exporters.blackbox import BlackboxExporter, ProbeTarget
from repro.exporters.delivery_exporter import DeliveryExporter
from repro.exporters.kafka_exporter import KafkaExporter
from repro.exporters.node import NodeExporter
from repro.exporters.ring_exporter import RingExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.datasource import (
    LokiDatasource,
    PrometheusDatasource,
    TempoDatasource,
)
from repro.grafana.panels import (
    HeatmapPanel,
    LogsPanel,
    StatPanel,
    TimeSeriesPanel,
    TopListPanel,
    TracePanel,
)
from repro.exporters.tenancy_exporter import TenancyExporter
from repro.exporters.objstore_exporter import ObjstoreExporter
from repro.exporters.queryx_exporter import QueryxExporter
from repro.loki.frontend import QueryFrontend
from repro.loki.logql.engine import LogQLEngine
from repro.loki.ruler import Ruler
from repro.loki.store import LokiStore
from repro.objstore.compactor import CompactionPolicy, Compactor
from repro.objstore.gateway import StoreGateway
from repro.objstore.index import ShipperIndex
from repro.objstore.objectstore import ObjectStore
from repro.objstore.shipper import ChunkShipper
from repro.objstore.tiered import TieredLokiStore
from repro.omni.anomaly import EwmaDetector, ProactiveMonitor
from repro.exporters.patterns_exporter import PatternsExporter
from repro.patterns.ingester import PatternIngester
from repro.patterns.miner import DrainConfig
from repro.patterns.ruler import BURST_EXPR, NOVEL_EXPR, PatternRuler
from repro.patterns.store import PatternStore
from repro.queryx.bloom import BloomStore
from repro.queryx.engine import DEFAULT_SLOW_QUERY_NS, ShardedQueryEngine
from repro.queryx.executor import QuerierPool
from repro.queryx.planner import QueryPlanner
from repro.omni.eventstore import EventStore, record_from_alert
from repro.omni.warehouse import OmniWarehouse
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.journal import NotificationJournal
from repro.resilience.receivers import (
    FlakyReceiver,
    IdempotentReceiver,
    RetryingReceiver,
)
from repro.ring.cluster import RingLokiCluster
from repro.selfheal.detector import FailureDetectorConfig
from repro.selfheal.manager import SelfHealConfig, SelfHealManager
from repro.selfheal.repairer import RingRepairerConfig
from repro.selfheal.supervisor import SupervisorConfig
from repro.exporters.selfheal_exporter import SelfHealExporter
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
from repro.shasta.ldms import LdmsAggregator, LdmsConsumer
from repro.shasta.redfish import RedfishEventSource
from repro.shasta.telemetry_api import TelemetryAPI
from repro.slackmock.webhook import SlackReceiver, SlackWebhook
from repro.tempo.instrument import PipelineTracing, TracingReceiver
from repro.tenancy.admission import AdmissionController
from repro.tenancy.limits import DEFAULT_TENANT, LimitsRegistry, TenantLimits
from repro.tenancy.scheduler import QueryScheduler
from repro.tempo.metrics import TraceMetricsExporter
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer
from repro.tempo.traceql.engine import TraceQLEngine
from repro.exporters.slo_exporter import SloExporter
from repro.slo.burnrate import (
    DEFAULT_BURN_WINDOWS,
    BurnWindow,
    burn_metric_name,
)
from repro.slo.manager import SloManager
from repro.slo.model import SLO
from repro.slo.sources import (
    AlertDeliverySource,
    IngestAvailabilitySource,
    PatternFreshnessSource,
    QueryLatencySource,
)
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.vmagent import ScrapeTarget, VMAgent
from repro.tsdb.vmalert import VMAlert
from repro.common.jsonutil import dumps_compact

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


def _reliable_delivery_default() -> bool:
    """CI's reliable-delivery leg flips the framework default via env so
    the whole integration suite runs in both delivery modes unmodified."""
    return os.environ.get("REPRO_RELIABLE_DELIVERY", "") not in ("", "0")


def _multi_tenancy_default() -> bool:
    """CI's multi-tenancy leg flips the framework default via env so the
    integration suite runs with the tenant plane switched on unmodified."""
    return os.environ.get("REPRO_MULTI_TENANCY", "") not in ("", "0")


def _object_storage_default() -> bool:
    """CI's object-storage leg flips the framework default via env so the
    integration suite runs with the tiered cold store switched on."""
    return os.environ.get("REPRO_OBJECT_STORAGE", "") not in ("", "0")


def _query_engine_default() -> bool:
    """CI's query-engine leg flips the framework default via env so the
    integration suite runs with the sharded read path switched on."""
    return os.environ.get("REPRO_QUERY_ENGINE", "") not in ("", "0")


def _self_healing_default() -> bool:
    """CI's self-healing leg flips the framework default via env so the
    integration suite runs with the detect/restart/repair loop on."""
    return os.environ.get("REPRO_SELF_HEAL", "") not in ("", "0")


def _pattern_mining_default() -> bool:
    """CI's pattern-mining leg flips the framework default via env so the
    integration suite runs with online template mining switched on."""
    return os.environ.get("REPRO_PATTERNS", "") not in ("", "0")


def _slo_default() -> bool:
    """CI's SLO leg flips the framework default via env so the
    integration suite runs with the SLO plane switched on unmodified."""
    return os.environ.get("REPRO_SLO", "") not in ("", "0")


#: Default objectives for the built-in SLOs; override per SLO name via
#: ``FrameworkConfig.slo_objectives``.
DEFAULT_SLO_OBJECTIVES: dict[str, float] = {
    "ingest-availability": 0.999,
    "query-latency": 0.95,
    "alert-delivery": 0.999,
    "pattern-freshness": 0.9,
}


@dataclass
class FrameworkConfig:
    """All the knobs, with production-plausible defaults."""

    cluster_spec: ClusterSpec = field(default_factory=ClusterSpec)
    cluster_name: str = "perlmutter"
    seed: int = 0
    # Collection cadences.
    redfish_poll_interval_ns: int = seconds(10)
    sensor_interval_ns: int = seconds(60)
    fm_poll_interval_ns: int = seconds(30)
    consumer_interval_ns: int = seconds(10)
    scrape_interval_ns: int = seconds(60)
    gpfs_interval_ns: int = seconds(60)
    console_interval_ns: int = seconds(60)
    console_lines_per_tick: int = 5
    ldms_interval_ns: int = seconds(60)
    facility_interval_ns: int = seconds(60)
    # Alerting cadences.
    ruler_interval_ns: int = seconds(30)
    vmalert_interval_ns: int = seconds(30)
    rule_for: str = "1m"  # "lasts more than one minute" (paper §IV.A)
    group_wait: str = "30s"
    group_interval: str = "5m"
    repeat_interval: str = "4h"
    # Node-temperature alert threshold (°C).
    hot_node_threshold_c: float = 90.0
    install_default_rules: bool = True
    # §II/§III.D "machine learning methods for proactive incident
    # response": EWMA anomaly scanning over key metrics.
    enable_proactive_detection: bool = False
    proactive_interval_ns: int = seconds(300)
    # Self-tracing of the pipeline (repro.tempo). 0.0 = off: no tracer is
    # constructed and every instrumented site takes its untraced path.
    tracing_sampling: float = 0.0
    tracing_max_traces: int = 10_000
    tracing_metrics_interval_ns: int = seconds(60)
    # Replicated ingest (repro.ring).  Off by default: logs land in a
    # single LokiStore as before.  On: pushes go through a distributor to
    # a consistent-hash ring of WAL-backed ingesters at write quorum.
    enable_ingest_ring: bool = False
    ring_ingesters: int = 4
    ring_replication: int = 3
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
    enable_self_healing: bool = field(default_factory=_self_healing_default)
    selfheal_heartbeat_interval_ns: int = seconds(5)
    selfheal_suspect_after_ns: int = seconds(15)
    selfheal_dead_after_ns: int = seconds(45)
    selfheal_sweep_interval_ns: int = seconds(5)
    selfheal_repair_grace_ns: int = seconds(30)
    selfheal_repair_interval_ns: int = seconds(10)
    selfheal_supervisor_interval_ns: int = seconds(5)
    # At-least-once alert delivery (repro.resilience).  Off by default
    # (or via the REPRO_RELIABLE_DELIVERY env var, for CI's second leg):
    # receivers are called directly and a failure loses the notification.
    # On: consumers commit offsets only after processing (poison records
    # quarantine to per-topic DLQs), and every notification is journaled
    # and retried with backoff + circuit breaking until delivered, with
    # idempotency keys preventing duplicate incidents/posts.
    enable_reliable_delivery: bool = field(
        default_factory=_reliable_delivery_default
    )
    delivery_backoff_base_ns: int = seconds(30)
    delivery_backoff_cap_ns: int = minutes(10)
    delivery_backoff_jitter: float = 0.2
    #: None = retry forever (a lost alert is the unacceptable outcome);
    #: finite budgets dead-letter the notification in the journal.
    delivery_max_attempts: int | None = None
    breaker_failure_threshold: int = 3
    breaker_reset_timeout_ns: int = minutes(2)
    #: Consumer-side processing failures before a record is poison and
    #: quarantines to the topic's dead-letter queue.
    max_delivery_failures: int = 3
    # Multi-tenancy (repro.tenancy).  Off by default (or via the
    # REPRO_MULTI_TENANCY env var, for CI's tenancy leg): the stack is
    # single-tenant exactly as before.  On: every log push is attributed
    # to a tenant, tagged with the ``tenant`` stream label, limit-checked
    # at admission (typed 429s on overdraw), shuffle-sharded onto the
    # ingest ring when the ring is enabled, and queried through a fair
    # per-tenant scheduler in front of the split/cache frontend.
    enable_multi_tenancy: bool = field(default_factory=_multi_tenancy_default)
    default_tenant: str = DEFAULT_TENANT
    #: None = the generous built-in defaults every tenant inherits.
    tenant_default_limits: TenantLimits | None = None
    tenant_overrides: dict[str, TenantLimits] = field(default_factory=dict)
    #: Ingesters per tenant shard when the ingest ring is also enabled;
    #: 0 disables shuffle sharding (every tenant uses the whole ring).
    tenant_shard_size: int = 3
    #: Querier slots the fair scheduler multiplexes across tenants.
    query_max_concurrency: int = 4
    # Tiered object storage (repro.objstore).  Off by default (or via
    # the REPRO_OBJECT_STORAGE env var, for CI's object-storage leg):
    # chunks stay resident in ingester memory forever, exactly as
    # before.  On: a shipper periodically seals aged chunks and uploads
    # them to a simulated S3 bucket behind a period-partitioned index
    # (replica copies deduplicate by content hash), freeing hot memory;
    # a compactor merges small objects and applies retention; queries
    # merge recent-from-ingester with cold-from-gateway transparently.
    enable_object_storage: bool = field(default_factory=_object_storage_default)
    objstore_flush_interval_ns: int = minutes(5)
    objstore_compaction_interval_ns: int = minutes(30)
    objstore_index_period_ns: int = NANOS_PER_DAY
    objstore_target_object_bytes: int = 1 << 20
    #: None = cold chunks are kept forever; the OMNI retention manager
    #: still sweeps both tiers on its own schedule either way.
    objstore_default_retention_ns: int | None = None
    objstore_tenant_retention_ns: dict[str, int] = field(default_factory=dict)
    # Sharded parallel query engine (repro.queryx).  Off by default (or
    # via the REPRO_QUERY_ENGINE env var, for CI's query-engine leg):
    # queries run monolithically on one LogQL engine as before.  On:
    # range queries are planned into time-split × stream-shard
    # subqueries, fanned out across a pool of simulated querier workers
    # (accounted wall-clock = busiest worker, not the sum) and merged
    # back exactly; when object storage is also on, the compactor builds
    # per-stream n-gram bloom blocks and the store-gateway uses them to
    # skip cold chunks that cannot match a line filter.
    enable_query_engine: bool = field(default_factory=_query_engine_default)
    #: Stream shards per shardable query (Loki's -querier.max-query-parallelism).
    queryx_shard_count: int = 4
    #: Simulated querier workers in the executor pool.
    queryx_workers: int = 4
    #: Time-split interval; shared with the frontend cache so both cut a
    #: range at identical aligned boundaries.
    queryx_split_interval_ns: int = hours(1)
    #: Accounted wall-clock above this marks a query slow (SlowQueries).
    queryx_slow_query_threshold_ns: int = DEFAULT_SLOW_QUERY_NS
    #: Target false-positive rate for the compactor-built bloom blocks.
    queryx_bloom_fp_rate: float = 0.01
    # Online log-template mining (repro.patterns).  Off by default (or
    # via the REPRO_PATTERNS env var, for CI's pattern-mining leg).  On:
    # a Drain-style miner tees off every accepted log push per (tenant,
    # stream), maintaining templates with content-derived pattern ids;
    # period-partitioned pattern blocks persist through the object store
    # beside the chunks (when object storage is on) and the compactor
    # rebuilds them cold; ``detected_patterns`` is served through the
    # LogQL engine, logcli and the frontend cache; and a pattern ruler
    # emits self-resolving PatternBurst / NovelErrorPattern alerts whose
    # ``pattern_id`` label lets Alertmanager collapse an alert storm
    # into one grouped incident.
    enable_pattern_mining: bool = field(default_factory=_pattern_mining_default)
    #: Drain similarity threshold: the exact-match fraction a line needs
    #: to join an existing cluster instead of seeding a new one.
    patterns_sim_threshold: float = 0.5
    patterns_ruler_interval_ns: int = seconds(30)
    #: EWMA smoothing for per-template rate baselines.
    patterns_ewma_alpha: float = 0.3
    #: A warmed-up template bursts at burst_factor × its EWMA baseline.
    patterns_burst_factor: float = 8.0
    #: Absolute storm floor (lines/s): any template above this rate is
    #: bursting regardless of baseline — catches storms of brand-new
    #: templates that have no history yet.
    patterns_min_burst_rate: float = 50.0
    #: Evaluations of baseline history before relative bursts can fire.
    patterns_warmup_evals: int = 3
    #: How long a NovelErrorPattern series stays active before it
    #: self-resolves.
    patterns_novel_active_ns: int = minutes(10)
    #: Cold-start corpus bootstrap: templates first sighted within this
    #: window of startup are not "novel" — an empty template store makes
    #: every early line never-before-seen.
    patterns_novel_bootstrap_ns: int = seconds(90)
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
    enable_slo: bool = field(default_factory=_slo_default)
    #: Recording-rule + budget evaluation cadence.
    slo_eval_interval_ns: int = seconds(30)
    #: Error-budget window shared by the built-in SLOs.
    slo_window: str = "30d"
    #: Per-SLO objective overrides on top of DEFAULT_SLO_OBJECTIVES.
    slo_objectives: dict[str, float] = field(default_factory=dict)
    #: The multi-window multi-burn-rate alert tiers.
    slo_burn_windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS
    #: A novel pattern detected within this bound counts as "fresh".
    slo_pattern_freshness_bound_ns: int = minutes(2)

    def __post_init__(self) -> None:
        if not 0.0 <= self.tracing_sampling <= 1.0:
            raise ValidationError("tracing_sampling must be in [0, 1]")
        if self.enable_reliable_delivery:
            if self.delivery_backoff_base_ns <= 0:
                raise ValidationError("delivery backoff base must be positive")
            if self.delivery_backoff_cap_ns < self.delivery_backoff_base_ns:
                raise ValidationError("delivery backoff cap must be >= base")
            if self.breaker_failure_threshold < 1:
                raise ValidationError("breaker threshold must be positive")
            if self.max_delivery_failures < 1:
                raise ValidationError("max_delivery_failures must be positive")
        if self.enable_ingest_ring:
            if self.ring_ingesters < 1:
                raise ValidationError("ring needs at least one ingester")
            if not 1 <= self.ring_replication <= self.ring_ingesters:
                raise ValidationError(
                    "ring_replication must be in [1, ring_ingesters]"
                )
            if not 0 <= self.ring_zones <= self.ring_ingesters:
                raise ValidationError(
                    "ring_zones must be in [0, ring_ingesters]"
                )
        if self.enable_self_healing and self.enable_ingest_ring:
            # The FailureDetectorConfig/RingRepairerConfig constructors
            # validate the relationships (suspect_after vs heartbeat gap,
            # dead_after vs suspect_after); here just the signs.
            for name in (
                "selfheal_heartbeat_interval_ns",
                "selfheal_suspect_after_ns",
                "selfheal_dead_after_ns",
                "selfheal_sweep_interval_ns",
                "selfheal_repair_interval_ns",
                "selfheal_supervisor_interval_ns",
            ):
                if getattr(self, name) <= 0:
                    raise ValidationError(f"{name} must be positive")
            if self.selfheal_repair_grace_ns < 0:
                raise ValidationError(
                    "selfheal_repair_grace_ns must be >= 0"
                )
        if self.enable_multi_tenancy:
            if not self.default_tenant:
                raise ValidationError("default_tenant must be non-empty")
            if self.query_max_concurrency < 1:
                raise ValidationError("query_max_concurrency must be >= 1")
            if self.tenant_shard_size < 0:
                raise ValidationError("tenant_shard_size must be >= 0")
            if (
                self.enable_ingest_ring
                and 0 < self.tenant_shard_size < self.ring_replication
            ):
                raise ValidationError(
                    "tenant_shard_size must be 0 (disabled) or >= "
                    "ring_replication"
                )
        if self.enable_object_storage:
            if self.objstore_flush_interval_ns <= 0:
                raise ValidationError(
                    "objstore_flush_interval_ns must be positive"
                )
            if self.objstore_compaction_interval_ns <= 0:
                raise ValidationError(
                    "objstore_compaction_interval_ns must be positive"
                )
            if self.objstore_index_period_ns <= 0:
                raise ValidationError(
                    "objstore_index_period_ns must be positive"
                )
            if self.objstore_target_object_bytes < 1:
                raise ValidationError(
                    "objstore_target_object_bytes must be positive"
                )
            if self.objstore_default_retention_ns is not None and (
                self.objstore_default_retention_ns <= 0
            ):
                raise ValidationError(
                    "objstore_default_retention_ns must be positive or None"
                )
        if self.enable_query_engine:
            if self.queryx_shard_count < 1:
                raise ValidationError("queryx_shard_count must be >= 1")
            if self.queryx_workers < 1:
                raise ValidationError("queryx_workers must be >= 1")
            if self.queryx_split_interval_ns <= 0:
                raise ValidationError(
                    "queryx_split_interval_ns must be positive"
                )
            if self.queryx_slow_query_threshold_ns <= 0:
                raise ValidationError(
                    "queryx_slow_query_threshold_ns must be positive"
                )
            if not 0.0 < self.queryx_bloom_fp_rate < 1.0:
                raise ValidationError(
                    "queryx_bloom_fp_rate must be in (0, 1)"
                )
        if self.enable_pattern_mining:
            if not 0.0 < self.patterns_sim_threshold <= 1.0:
                raise ValidationError(
                    "patterns_sim_threshold must be in (0, 1]"
                )
            if self.patterns_ruler_interval_ns <= 0:
                raise ValidationError(
                    "patterns_ruler_interval_ns must be positive"
                )
            if not 0.0 < self.patterns_ewma_alpha <= 1.0:
                raise ValidationError(
                    "patterns_ewma_alpha must be in (0, 1]"
                )
            if self.patterns_burst_factor <= 1.0:
                raise ValidationError("patterns_burst_factor must be > 1")
            if self.patterns_min_burst_rate <= 0.0:
                raise ValidationError(
                    "patterns_min_burst_rate must be positive"
                )
            if self.patterns_warmup_evals < 1:
                raise ValidationError("patterns_warmup_evals must be >= 1")
            if self.patterns_novel_active_ns <= 0:
                raise ValidationError(
                    "patterns_novel_active_ns must be positive"
                )
            if self.patterns_novel_bootstrap_ns < 0:
                raise ValidationError(
                    "patterns_novel_bootstrap_ns must be >= 0"
                )
        if self.enable_slo:
            if self.slo_eval_interval_ns <= 0:
                raise ValidationError("slo_eval_interval_ns must be positive")
            if not self.slo_burn_windows:
                raise ValidationError(
                    "slo_burn_windows needs at least one tier"
                )
            if self.slo_pattern_freshness_bound_ns <= 0:
                raise ValidationError(
                    "slo_pattern_freshness_bound_ns must be positive"
                )
            for name, objective in self.slo_objectives.items():
                if not 0.0 < objective < 1.0:
                    raise ValidationError(
                        f"slo objective for {name!r} must be in (0, 1) "
                        f"exclusive, got {objective}"
                    )
        for name in (
            "redfish_poll_interval_ns",
            "sensor_interval_ns",
            "fm_poll_interval_ns",
            "consumer_interval_ns",
            "scrape_interval_ns",
            "ruler_interval_ns",
            "vmalert_interval_ns",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


class MonitoringFramework:
    """The assembled stack. Construct, :meth:`start`, then advance time."""

    def __init__(
        self, config: FrameworkConfig | None = None, clock: SimClock | None = None
    ) -> None:
        self.config = config or FrameworkConfig()
        self.clock = clock or SimClock()
        cfg = self.config

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
        self.traces: TraceStore | None = None
        self.tracer: Tracer | None = None
        self.traceql: TraceQLEngine | None = None
        self.tracing: PipelineTracing | None = None
        self.trace_metrics: TraceMetricsExporter | None = None
        if cfg.tracing_sampling > 0.0:
            self.traces = TraceStore(cfg.tracing_max_traces)
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

        # --- multi-tenancy (repro.tenancy) -------------------------------
        self.limits: LimitsRegistry | None = None
        self.admission: AdmissionController | None = None
        self.frontend: QueryFrontend | None = None
        self.scheduler: QueryScheduler | None = None
        self.tenancy_exporter: TenancyExporter | None = None
        if cfg.enable_multi_tenancy:
            self.limits = LimitsRegistry(
                cfg.tenant_default_limits, cfg.tenant_overrides
            )
            self.admission = AdmissionController(
                self.limits,
                self.clock,
                default_tenant=cfg.default_tenant,
                tracer=self.tracer,
            )

        # --- OMNI: the stores ------------------------------------------------
        self.ring: RingLokiCluster | None = None
        self.ring_exporter: RingExporter | None = None
        self.selfheal: SelfHealManager | None = None
        self.selfheal_exporter: SelfHealExporter | None = None
        if cfg.enable_ingest_ring:
            self.ring = RingLokiCluster(
                ingesters=cfg.ring_ingesters,
                replication_factor=cfg.ring_replication,
                tracer=self.tracer,
                shard_size=(
                    cfg.tenant_shard_size if cfg.enable_multi_tenancy else 0
                ),
                zones=cfg.ring_zones,
            )
            self.ring_exporter = RingExporter(self.ring)
            self.faults.attach_ring(self.ring)
            # Self-healing needs something to heal: with the ring off the
            # flag is a no-op, so CI's REPRO_SELF_HEAL leg can run the
            # whole suite (ring-less tests included) unmodified.
            if cfg.enable_self_healing:
                self.selfheal = SelfHealManager(
                    self.clock,
                    self.ring,
                    SelfHealConfig(
                        detector=FailureDetectorConfig(
                            heartbeat_interval_ns=(
                                cfg.selfheal_heartbeat_interval_ns
                            ),
                            suspect_after_ns=cfg.selfheal_suspect_after_ns,
                            dead_after_ns=cfg.selfheal_dead_after_ns,
                            sweep_interval_ns=cfg.selfheal_sweep_interval_ns,
                        ),
                        repairer=RingRepairerConfig(
                            grace_ns=cfg.selfheal_repair_grace_ns,
                            sweep_interval_ns=cfg.selfheal_repair_interval_ns,
                        ),
                        supervisor=SupervisorConfig(
                            sweep_interval_ns=(
                                cfg.selfheal_supervisor_interval_ns
                            ),
                        ),
                    ),
                    tracer=self.tracer,
                )
                self.selfheal_exporter = SelfHealExporter(self.selfheal)
                self.faults.attach_selfheal(self.selfheal)
        # Tiered cold storage wraps whatever hot tier is configured — the
        # ring when it is on, a plain LokiStore otherwise — so both CI
        # legs compose: REPRO_OBJECT_STORAGE=1 on top of the ring gives
        # replicated hot ingest *and* deduplicated cold flush.
        self.objstore: ObjectStore | None = None
        self.shipper_index: ShipperIndex | None = None
        self.shipper: ChunkShipper | None = None
        self.compactor: Compactor | None = None
        self.store_gateway: StoreGateway | None = None
        self.tiered: TieredLokiStore | None = None
        self.objstore_exporter: ObjstoreExporter | None = None
        self.blooms: BloomStore | None = None
        log_backend: RingLokiCluster | TieredLokiStore | LokiStore | None = (
            self.ring
        )
        if cfg.enable_object_storage:
            hot = self.ring if self.ring is not None else LokiStore()
            self.objstore = ObjectStore(self.clock)
            self.shipper_index = ShipperIndex(
                self.objstore, period_ns=cfg.objstore_index_period_ns
            )
            self.shipper = ChunkShipper(
                hot, self.objstore, self.shipper_index, self.clock,
                tracer=self.tracer,
            )
            # Bloom blocks ride the same bucket as the chunks; the
            # compactor builds them, the gateway consults them.
            if cfg.enable_query_engine:
                self.blooms = BloomStore(
                    self.objstore, fp_rate=cfg.queryx_bloom_fp_rate
                )
            self.compactor = Compactor(
                self.objstore,
                self.shipper_index,
                self.clock,
                policy=CompactionPolicy(
                    target_object_bytes=cfg.objstore_target_object_bytes
                ),
                default_retention_ns=cfg.objstore_default_retention_ns,
                tenant_retention_ns=cfg.objstore_tenant_retention_ns,
                tracer=self.tracer,
                blooms=self.blooms,
            )
            self.store_gateway = StoreGateway(
                self.objstore, self.shipper_index, self.clock,
                tracer=self.tracer,
                blooms=self.blooms,
            )
            self.tiered = TieredLokiStore(
                hot, self.objstore, self.shipper_index, self.shipper,
                self.compactor, self.store_gateway,
            )
            self.faults.attach_objstore(self.objstore, self.shipper)
            log_backend = self.tiered
        # --- online template mining (repro.patterns) ---------------------
        self.pattern_store: PatternStore | None = None
        self.pattern_ingester: PatternIngester | None = None
        self.pattern_ruler: PatternRuler | None = None
        self.patterns_exporter: PatternsExporter | None = None
        if cfg.enable_pattern_mining:
            drain_config = DrainConfig(sim_threshold=cfg.patterns_sim_threshold)
            # With object storage on, pattern blocks persist beside the
            # chunks; without, the store is memory-resident.
            self.pattern_store = PatternStore(
                self.objstore,
                period_ns=cfg.objstore_index_period_ns,
                config=drain_config,
                tracer=self.tracer,
            )
            self.pattern_ingester = PatternIngester(
                self.clock,
                self.pattern_store,
                config=drain_config,
                tracer=self.tracer,
                default_tenant=cfg.default_tenant,
            )
            if self.compactor is not None:
                self.compactor.patterns = self.pattern_store
            if self.store_gateway is not None:
                self.store_gateway.patterns = self.pattern_store
        self.warehouse = OmniWarehouse(
            self.clock, loki=log_backend, admission=self.admission,
            patterns=self.pattern_ingester,
        )
        self.faults.attach_patterns(self.warehouse, self.pattern_ingester)
        self.logql = LogQLEngine(self.warehouse.loki, patterns=self.pattern_store)
        self.promql = PromQLEngine(self.warehouse.tsdb)
        # --- sharded query engine (repro.queryx) -------------------------
        self.queryx: ShardedQueryEngine | None = None
        self.queryx_exporter: QueryxExporter | None = None
        if cfg.enable_query_engine:
            if self.store_gateway is not None:
                gateway = self.store_gateway

                def cold_latency_fn() -> int:
                    # Charges each subquery with the cold object-store
                    # latency it actually incurred (delta of this counter).
                    return gateway.fetch_latency_ns_total
            else:
                cold_latency_fn = None
            self.queryx = ShardedQueryEngine(
                self.warehouse.loki,
                self.clock,
                planner=QueryPlanner(
                    shard_count=cfg.queryx_shard_count,
                    split_ns=cfg.queryx_split_interval_ns,
                ),
                pool=QuerierPool(workers=cfg.queryx_workers),
                tracer=self.tracer,
                cold_latency_fn=cold_latency_fn,
                slow_query_threshold_ns=cfg.queryx_slow_query_threshold_ns,
            )
            self.faults.attach_queryx(self.queryx.pool)
        if cfg.enable_multi_tenancy:
            assert self.limits is not None
            # The frontend caches over whichever engine is configured;
            # with queryx on, every uncached sub-window fans out across
            # the querier pool, and the split intervals match so planner
            # and cache cut ranges at identical aligned boundaries.
            # Pattern queries always route to the LogQL engine (they
            # read period-partitioned blocks, not chunks, so sharding
            # buys nothing); the split matches the store's period so
            # window merging is exact.
            if self.queryx is not None:
                self.frontend = QueryFrontend(
                    self.queryx, self.clock,
                    split_ns=cfg.queryx_split_interval_ns,
                    pattern_source=(
                        self.logql if cfg.enable_pattern_mining else None
                    ),
                    pattern_split_ns=cfg.objstore_index_period_ns,
                )
            else:
                self.frontend = QueryFrontend(
                    self.logql, self.clock,
                    pattern_source=(
                        self.logql if cfg.enable_pattern_mining else None
                    ),
                    pattern_split_ns=cfg.objstore_index_period_ns,
                )
            self.scheduler = QueryScheduler(
                self.frontend,
                self.clock,
                registry=self.limits,
                max_concurrency=cfg.query_max_concurrency,
                tracer=self.tracer,
            )
        elif cfg.enable_pattern_mining:
            # No tenancy plane, but detected_patterns still wants the
            # frontend's window split + cache; no scheduler in front.
            self.frontend = QueryFrontend(
                self.queryx if self.queryx is not None else self.logql,
                self.clock,
                split_ns=(
                    cfg.queryx_split_interval_ns
                    if self.queryx is not None
                    else hours(1)
                ),
                pattern_source=self.logql,
                pattern_split_ns=cfg.objstore_index_period_ns,
            )
        if self.traces is not None:
            self.trace_metrics = TraceMetricsExporter(
                self.traces, self.warehouse.tsdb, self.clock,
                cluster=cfg.cluster_name,
            )

        # --- the k3s consumer pods -------------------------------------------
        token = "token-nersc-k3s"
        reliable = cfg.enable_reliable_delivery
        max_fail = cfg.max_delivery_failures
        self.redfish_consumer = RedfishEventConsumer(
            self.telemetry_api, token, TOPIC_REDFISH_EVENTS, self.warehouse,
            cluster=cfg.cluster_name, tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.sensor_consumer = SensorMetricConsumer(
            self.telemetry_api, token, TOPIC_SENSOR_TELEMETRY, self.warehouse,
            cluster=cfg.cluster_name, tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.syslog_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_SYSLOG, self.warehouse,
            tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.container_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_CONTAINER_LOGS, self.warehouse,
            tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.console_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_CONSOLE_LOGS, self.warehouse,
            tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.ldms_consumer = LdmsConsumer(
            self.telemetry_api, token, self.warehouse
        )

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
        self.vmagent.add_target(
            ScrapeTarget("node", "node-exporter:9100", self.node_exporter)
        )
        self.vmagent.add_target(
            ScrapeTarget("kafka", "kafka-exporter:9308", self.kafka_exporter)
        )
        self.vmagent.add_target(
            ScrapeTarget("aruba", "aruba-exporter:9101", self.aruba_exporter)
        )
        self.vmagent.add_target(
            ScrapeTarget("blackbox", "blackbox-exporter:9115", self.blackbox_exporter)
        )
        if self.ring_exporter is not None:
            self.vmagent.add_target(
                ScrapeTarget("loki-ring", "ring-exporter:9102", self.ring_exporter)
            )
        if self.admission is not None:
            self.tenancy_exporter = TenancyExporter(
                self.admission, self.scheduler, self.broker
            )
            self.vmagent.add_target(
                ScrapeTarget(
                    "tenancy", "tenancy-exporter:9104", self.tenancy_exporter
                )
            )
            self.faults.attach_tenancy(self.warehouse, self.scheduler)
        if (
            self.objstore is not None
            and self.shipper_index is not None
            and self.shipper is not None
        ):
            self.objstore_exporter = ObjstoreExporter(
                self.objstore,
                self.shipper_index,
                self.shipper,
                compactor=self.compactor,
                gateway=self.store_gateway,
            )
            self.vmagent.add_target(
                ScrapeTarget(
                    "objstore", "objstore-exporter:9105", self.objstore_exporter
                )
            )
        if self.queryx is not None:
            self.queryx_exporter = QueryxExporter(
                self.queryx,
                gateway=self.store_gateway,
                blooms=self.blooms,
            )
            self.vmagent.add_target(
                ScrapeTarget(
                    "queryx", "queryx-exporter:9106", self.queryx_exporter
                )
            )
        if self.selfheal_exporter is not None:
            self.vmagent.add_target(
                ScrapeTarget(
                    "selfheal",
                    "selfheal-exporter:9107",
                    self.selfheal_exporter,
                )
            )

        # --- alerting plane ---------------------------------------------------------
        self.slack = SlackWebhook()
        cmdb = build_from_cluster(self.cluster, cfg.cluster_name)
        # Facility plant joins the CMDB so CDU/PDU incidents map to CIs.
        for cdu_name in self.facility.cdus:
            cmdb.add(cdu_name, "cmdb_ci_cooling", parent=cfg.cluster_name)
        for pdu_name in self.facility.pdus:
            cmdb.add(pdu_name, "cmdb_ci_pdu", parent=cfg.cluster_name)
        self.servicenow = ServiceNowPlatform(self.clock, cmdb=cmdb)
        child_routes = [
            Route(
                receiver="servicenow",
                matchers=(Matcher("severity", MatchOp.EQ, "critical"),),
                group_by=("alertname", "cluster"),
                group_wait=cfg.group_wait,
                group_interval=cfg.group_interval,
                repeat_interval=cfg.repeat_interval,
                continue_=True,
            ),
        ]
        if cfg.enable_slo:
            # Severity-tiered SLO routing.  Pages (severity=critical)
            # already matched the ServiceNow route above (continue=True)
            # and opened an incident; this route groups both pages and
            # slow-burn tickets per (alert, SLO) for the Slack channel —
            # tickets never reach ServiceNow at all.
            child_routes.append(
                Route(
                    receiver="slack",
                    matchers=(Matcher("category", MatchOp.EQ, "slo"),),
                    group_by=("alertname", "slo", "cluster"),
                    group_wait=cfg.group_wait,
                    group_interval=cfg.group_interval,
                    repeat_interval=cfg.repeat_interval,
                )
            )
        if cfg.enable_pattern_mining:
            # Storm suppression: pattern alerts group on pattern_id, so
            # a storm of thousands of identical lines — across streams
            # and ingesters — collapses into ONE aggregation group and
            # one notification per group_wait/group_interval window.
            child_routes.append(
                Route(
                    receiver="slack",
                    matchers=(Matcher("category", MatchOp.EQ, "patterns"),),
                    group_by=("alertname", "pattern_id", "cluster"),
                    group_wait=cfg.group_wait,
                    group_interval=cfg.group_interval,
                    repeat_interval=cfg.repeat_interval,
                )
            )
        child_routes.append(
            Route(
                receiver="slack",
                group_by=("alertname", "cluster"),
                group_wait=cfg.group_wait,
                group_interval=cfg.group_interval,
                repeat_interval=cfg.repeat_interval,
            )
        )
        route = Route(
            receiver="slack",
            group_by=("alertname", "cluster"),
            group_wait=cfg.group_wait,
            group_interval=cfg.group_interval,
            repeat_interval=cfg.repeat_interval,
            routes=child_routes,
        )
        self.alertmanager = Alertmanager(self.clock, route)
        self.dashboards = self._build_dashboards()
        slack_receiver: SlackReceiver | TracingReceiver = SlackReceiver(
            self.slack,
            dashboard_base_url=self.dashboards["overview"].url(),
        )
        sn_receiver: ServiceNowReceiver | TracingReceiver = ServiceNowReceiver(
            self.servicenow
        )
        ruler_notify = vmalert_notify = self.alertmanager.receive
        if self.tracing is not None:
            slack_receiver = TracingReceiver(slack_receiver, self.tracing)
            sn_receiver = TracingReceiver(sn_receiver, self.tracing)
            ruler_notify = self.tracing.notifier(self.alertmanager.receive, "ruler")
            vmalert_notify = self.tracing.notifier(
                self.alertmanager.receive, "vmalert"
            )
        # --- reliable delivery (repro.resilience) -----------------------
        # Chain per receiver: Retrying(Flaky(Idempotent(real))).  The
        # flaky wrapper is the RECEIVER_OUTAGE fault hook; the idempotent
        # wrapper sits *inside* it so a redelivered notification (e.g.
        # after an ambiguous failure) is dropped by key, never duplicated.
        self.journal: NotificationJournal | None = None
        self.flaky_receivers: dict[str, FlakyReceiver] = {}
        self.delivery_receivers: dict[str, RetryingReceiver] = {}
        self.delivery_exporter: DeliveryExporter | None = None
        if cfg.enable_reliable_delivery:
            self.journal = NotificationJournal(self.clock)
            for idx, receiver in enumerate((slack_receiver, sn_receiver)):
                flaky = FlakyReceiver(IdempotentReceiver(receiver), self.clock)
                retrying = RetryingReceiver(
                    flaky,
                    self.clock,
                    BackoffPolicy(
                        base_ns=cfg.delivery_backoff_base_ns,
                        cap_ns=cfg.delivery_backoff_cap_ns,
                        jitter=cfg.delivery_backoff_jitter,
                        seed=cfg.seed + 31 + idx,
                    ),
                    self.journal,
                    breaker=CircuitBreaker(
                        self.clock,
                        failure_threshold=cfg.breaker_failure_threshold,
                        reset_timeout_ns=cfg.breaker_reset_timeout_ns,
                    ),
                    max_attempts=cfg.delivery_max_attempts,
                    tracer=self.tracer,
                )
                self.flaky_receivers[retrying.name] = flaky
                self.delivery_receivers[retrying.name] = retrying
                self.alertmanager.register_receiver(retrying)
            self.faults.attach_delivery(
                receivers=self.flaky_receivers,
                consumers={
                    "redfish": self.redfish_consumer,
                    "sensor": self.sensor_consumer,
                    "syslog": self.syslog_consumer,
                    "container": self.container_consumer,
                    "console": self.console_consumer,
                },
                journal=self.journal,
            )
            self.delivery_exporter = DeliveryExporter(
                self.journal, self.delivery_receivers.values(), self.broker
            )
            self.vmagent.add_target(
                ScrapeTarget(
                    "alert-delivery",
                    "delivery-exporter:9103",
                    self.delivery_exporter,
                )
            )
        else:
            self.alertmanager.register_receiver(slack_receiver)
            self.alertmanager.register_receiver(sn_receiver)
        self.ruler = Ruler(self.logql, self.clock, ruler_notify)
        self.vmalert = VMAlert(self.promql, self.clock, vmalert_notify)
        if cfg.enable_pattern_mining:
            assert self.pattern_ingester is not None
            assert self.pattern_store is not None
            pattern_notify = self.alertmanager.receive
            if self.tracing is not None:
                pattern_notify = self.tracing.notifier(
                    self.alertmanager.receive, "pattern-ruler"
                )
            self.pattern_ruler = PatternRuler(
                self.clock,
                pattern_notify,
                self.pattern_ingester,
                self.pattern_store,
                cluster=cfg.cluster_name,
                ewma_alpha=cfg.patterns_ewma_alpha,
                burst_factor=cfg.patterns_burst_factor,
                min_burst_rate=cfg.patterns_min_burst_rate,
                warmup_evals=cfg.patterns_warmup_evals,
                novel_active_ns=cfg.patterns_novel_active_ns,
                novel_bootstrap_ns=cfg.patterns_novel_bootstrap_ns,
                tracer=self.tracer,
            )
            self.patterns_exporter = PatternsExporter(
                self.pattern_ingester, self.pattern_store, self.pattern_ruler
            )
            self.vmagent.add_target(
                ScrapeTarget(
                    "patterns", "patterns-exporter:9108", self.patterns_exporter
                )
            )
        # --- service-level objectives (repro.slo) -----------------------
        # Built last on the alerting plane: the SLI sources read the
        # journal/queryx/pattern counters, and budget escalation posts
        # straight into Alertmanager.
        self.slo_manager: SloManager | None = None
        self.slo_exporter: SloExporter | None = None
        if cfg.enable_slo:
            slo_notify = self.alertmanager.receive
            if self.tracing is not None:
                slo_notify = self.tracing.notifier(
                    self.alertmanager.receive, "slo-manager"
                )
            self.slo_manager = SloManager(
                self.clock,
                self.promql,
                self.warehouse.tsdb,
                slo_notify,
                windows=cfg.slo_burn_windows,
                cluster=cfg.cluster_name,
                tracer=self.tracer,
            )
            objectives = {**DEFAULT_SLO_OBJECTIVES, **cfg.slo_objectives}

            def _slo(name: str, description: str) -> SLO:
                return SLO(
                    name=name,
                    description=description,
                    objective=objectives[name],
                    window=cfg.slo_window,
                )

            self.slo_manager.register(
                _slo(
                    "ingest-availability",
                    "log entries accepted vs discarded or lost",
                ),
                IngestAvailabilitySource(
                    self.warehouse,
                    admission=self.admission,
                    distributor=(
                        self.ring.distributor if self.ring is not None else None
                    ),
                ),
            )
            if self.queryx is not None:
                self.slo_manager.register(
                    _slo(
                        "query-latency",
                        "queries under the slowness threshold",
                    ),
                    QueryLatencySource(self.queryx),
                )
            if self.journal is not None:
                self.slo_manager.register(
                    _slo(
                        "alert-delivery",
                        "alert notifications delivered vs dead-lettered",
                    ),
                    AlertDeliverySource(self.journal),
                )
            if self.pattern_ruler is not None:
                self.slo_manager.register(
                    _slo(
                        "pattern-freshness",
                        "novel error templates detected within the bound",
                    ),
                    PatternFreshnessSource(
                        self.pattern_ruler, cfg.slo_pattern_freshness_bound_ns
                    ),
                )
            for spec in self.slo_manager.rule_specs():
                self.vmalert.add_rule(spec)
            self.slo_exporter = SloExporter(self.slo_manager)
            self.vmagent.add_target(
                ScrapeTarget("slo", "slo-exporter:9109", self.slo_exporter)
            )
            self.faults.attach_slo(self.slo_manager)
        if cfg.install_default_rules:
            self._install_default_rules()

        self.proactive: ProactiveMonitor | None = None
        if cfg.enable_proactive_detection:
            # z=6 with a long warmup keeps the fleet-wide false-positive
            # rate at zero over the sensors' own noise, while a real
            # excursion (tens of degrees) scores far beyond it.
            self.proactive = ProactiveMonitor(
                self.warehouse.tsdb,
                self.clock,
                self.alertmanager.receive,
                detector=EwmaDetector(z_threshold=6.0, warmup=15),
            )
            self.proactive.watch_metric("node_temp_celsius", severity="warning")
            self.proactive.watch_metric("gpfs_write_mb_s", severity="warning")

        #: OMNI's event archive (paper §III.C: "anything that has a
        #: start and end time"); SN alerts are mirrored in periodically.
        self.eventstore = EventStore()
        # Alert number -> the state last mirrored into the archive.
        self._mirrored_alert_states: dict[str, SnAlertState] = {}

        self._started = False

    # ------------------------------------------------------------------
    # Wiring details
    # ------------------------------------------------------------------
    def _fm_sink(self, event: SwitchEvent) -> None:
        """The FM monitor pushes its event lines straight to Loki."""
        root = None
        if self.tracer is not None and self.tracing is not None:
            # The FM monitor bypasses the broker, so its trace starts at
            # the event and goes straight to the store write; the switch
            # alert correlates back via the xname label.
            root = self.tracer.record(
                "fabric_manager",
                "switch_event",
                None,
                start_ns=event.timestamp_ns,
                end_ns=self.clock.now_ns,
                attributes={"xname": event.xname, "state": event.state},
            )
        self.warehouse.ingest_log(
            {
                "app": MONITOR_APP_LABEL,
                "cluster": self.config.cluster_name,
            },
            event.timestamp_ns,
            event.to_line(),
            trace_ctx=root,
        )
        if root is not None and self.tracing is not None:
            self.tracing.store_span(
                root, "loki", "push", [{"xname": event.xname}]
            )

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
        cfg = self.config
        self.ruler.add_rule(
            RuleSpec(
                name="PerlmutterCabinetLeak",
                expr=LEAK_RULE_QUERY + " > 0",
                for_=cfg.rule_for,
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
                for_=cfg.rule_for,
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
                for_=cfg.rule_for,
                labels={"severity": "critical", "category": "compute"},
                annotations={"summary": "Node {{ $labels.xname }} is down"},
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="NodeHotTemperature",
                expr=f"node_temp_celsius > {cfg.hot_node_threshold_c:g}",
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
                for_=cfg.rule_for,
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
                for_=cfg.rule_for,
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
        if self.ring is not None:
            self.vmalert.add_rule(
                RuleSpec(
                    name="IngesterDown",
                    expr="loki_ring_ingester_up == 0",
                    for_=cfg.rule_for,
                    labels={"severity": "warning", "category": "pipeline"},
                    annotations={
                        "summary": "Loki ingester {{ $labels.ingester }} is "
                        "down; writes continue at quorum "
                        f"{self.ring.distributor.write_quorum}/"
                        f"{self.ring.distributor.replication_factor}"
                    },
                )
            )
        if self.selfheal is not None:
            self.vmalert.add_rule(
                RuleSpec(
                    name="IngesterSuspect",
                    # One-hot lifecycle gauge from the ring exporter; no
                    # sustain window — suspicion is itself the sustained
                    # condition (heartbeats already stale for
                    # suspect_after), and the state may progress to DEAD
                    # before a second evaluation.
                    expr='ring_member_state{state="suspect"} > 0',
                    for_="0s",
                    labels={"severity": "warning", "category": "pipeline"},
                    annotations={
                        "summary": "Ingester {{ $labels.ingester }} "
                        "heartbeats have gone stale; writes are routing "
                        "around it"
                    },
                )
            )
            self.vmalert.add_rule(
                RuleSpec(
                    name="UnderReplicatedStreams",
                    # A live placement diff: fires while redundancy is
                    # genuinely lost, self-resolves the scrape after the
                    # repairer (or a restart + WAL replay) closes the gap.
                    expr="selfheal_under_replicated_streams > 0",
                    for_="0s",
                    labels={"severity": "critical", "category": "pipeline"},
                    annotations={
                        "summary": "{{ $value }} streams are missing "
                        "replicas; anti-entropy repair is pending"
                    },
                )
            )
        if cfg.enable_multi_tenancy:
            self.vmalert.add_rule(
                RuleSpec(
                    name="TenantRateLimited",
                    expr="tenant_ingest_discarded_recent > 0",
                    for_=cfg.rule_for,
                    labels={"severity": "warning", "category": "tenancy"},
                    annotations={
                        "summary": "Tenant {{ $labels.tenant }} is being "
                        "rate-limited: {{ $value }} lines discarded since "
                        "the last scrape"
                    },
                )
            )
        if cfg.enable_object_storage:
            self.vmalert.add_rule(
                RuleSpec(
                    name="ObjstoreFlushStalled",
                    expr="objstore_flush_failures_consecutive > 0",
                    for_=cfg.rule_for,
                    labels={"severity": "warning", "category": "storage"},
                    annotations={
                        "summary": "{{ $value }} consecutive chunk flushes "
                        "to object storage have failed; ingester memory is "
                        "not draining"
                    },
                )
            )
        if cfg.enable_query_engine:
            self.vmalert.add_rule(
                RuleSpec(
                    name="SlowQueries",
                    # The exporter gauge is a since-last-scrape delta, so
                    # it self-resolves on the next quiet scrape; no
                    # sustain window — one slow refresh is worth knowing.
                    expr="queryx_slow_queries_recent > 0",
                    for_="0s",
                    labels={"severity": "warning", "category": "query"},
                    annotations={
                        "summary": "{{ $value }} queries exceeded the "
                        "slow-query threshold since the last scrape"
                    },
                )
            )
        if cfg.enable_reliable_delivery:
            self.vmalert.add_rule(
                RuleSpec(
                    name="NotificationFailures",
                    expr="alert_delivery_pending > 0",
                    for_="10m",
                    labels={"severity": "warning", "category": "pipeline"},
                    annotations={
                        "summary": "{{ $value }} notifications pending "
                        "delivery to {{ $labels.receiver }}"
                    },
                )
            )
        self.vmalert.add_rule(
            RuleSpec(
                name="GpfsDegraded",
                expr="gpfs_unhealthy_nsds > 0",
                for_=cfg.rule_for,
                labels={"severity": "critical", "category": "storage"},
                annotations={
                    "summary": "GPFS {{ $labels.fs }} has {{ $value }} "
                    "unhealthy NSD servers"
                },
            )
        )
        if self.pattern_ruler is not None:
            # Pattern rules live on the *pattern* ruler, whose _query
            # reads the miner directly instead of PromQL.  Both fire
            # immediately (for_="0s"): a burst sample only exists while
            # the rate genuinely exceeds the baseline, and a novel error
            # template is by definition a one-time rising edge.
            self.pattern_ruler.add_rule(
                RuleSpec(
                    name="PatternBurst",
                    expr=BURST_EXPR,
                    for_="0s",
                    labels={"severity": "warning", "category": "patterns"},
                    annotations={
                        "summary": "Template '{{ $labels.pattern }}' is "
                        "bursting at {{ $value }} lines/s over its "
                        "baseline — storm grouped by pattern_id"
                    },
                )
            )
            self.pattern_ruler.add_rule(
                RuleSpec(
                    name="NovelErrorPattern",
                    expr=NOVEL_EXPR,
                    for_="0s",
                    labels={"severity": "critical", "category": "patterns"},
                    annotations={
                        "summary": "Never-before-seen error template "
                        "'{{ $labels.pattern }}' appeared"
                    },
                )
            )

    def _build_dashboards(self) -> dict[str, Dashboard]:
        loki_ds = LokiDatasource(self.logql)
        prom_ds = PrometheusDatasource(self.promql)
        overview = Dashboard("Perlmutter Monitoring Overview", uid="perlmutter-overview")
        overview.add_panel(
            LogsPanel(
                title="Redfish events",
                datasource=loki_ds,
                query='{data_type="redfish_event"}',
            )
        )
        overview.add_panel(
            TimeSeriesPanel(
                title="CabinetLeakDetected (count_over_time 60m)",
                datasource=loki_ds,
                query=LEAK_QUERY,
            )
        )
        overview.add_panel(
            LogsPanel(
                title="Fabric manager events",
                datasource=loki_ds,
                query='{app="fabric_manager_monitor"}',
            )
        )
        overview.add_panel(
            StatPanel(
                title="Nodes up",
                datasource=prom_ds,
                query="sum(node_up)",
            )
        )
        overview.add_panel(
            StatPanel(
                title="Max node temp",
                datasource=prom_ds,
                query="max(node_temp_celsius)",
                unit=" C",
            )
        )
        overview.add_panel(
            TopListPanel(
                title="Hottest nodes",
                datasource=prom_ds,
                query="topk(5, node_temp_celsius)",
                unit=" C",
            )
        )
        dashboards = {"overview": overview}
        if self.ring is not None:
            ring_dash = Dashboard("Ingest Ring", uid="ingest-ring")
            ring_dash.add_panel(
                StatPanel(
                    title="Ingesters up",
                    datasource=prom_ds,
                    query="sum(loki_ring_ingester_up)",
                )
            )
            ring_dash.add_panel(
                TopListPanel(
                    title="Entries per ingester",
                    datasource=prom_ds,
                    query="topk(16, loki_ring_ingester_entries_total)",
                    label="ingester",
                )
            )
            ring_dash.add_panel(
                TimeSeriesPanel(
                    title="Distributor quorum failures",
                    datasource=prom_ds,
                    query="loki_distributor_quorum_failures_total",
                )
            )
            ring_dash.add_panel(
                StatPanel(
                    title="WAL segments awaiting checkpoint",
                    datasource=prom_ds,
                    query="sum(loki_ring_wal_segments)",
                )
            )
            ring_dash.add_panel(
                StatPanel(
                    title="Records recovered by WAL replay",
                    datasource=prom_ds,
                    query="sum(loki_ring_wal_replayed_records_total)",
                )
            )
            dashboards["ring"] = ring_dash
        if self.selfheal is not None:
            selfheal = Dashboard("Self-Healing", uid="self-healing")
            selfheal.add_panel(
                TimeSeriesPanel(
                    title="Members by lifecycle state",
                    datasource=prom_ds,
                    query="selfheal_members",
                )
            )
            selfheal.add_panel(
                TopListPanel(
                    title="Heartbeat age per member",
                    datasource=prom_ds,
                    query="topk(16, ring_member_heartbeat_age_seconds)",
                    label="ingester",
                    unit=" s",
                )
            )
            selfheal.add_panel(
                TimeSeriesPanel(
                    title="Under-replicated streams (alert signal)",
                    datasource=prom_ds,
                    query="selfheal_under_replicated_streams",
                )
            )
            selfheal.add_panel(
                StatPanel(
                    title="Members retired by repair",
                    datasource=prom_ds,
                    query="sum(selfheal_members_repaired_total)",
                )
            )
            selfheal.add_panel(
                StatPanel(
                    title="Entries re-replicated",
                    datasource=prom_ds,
                    query="sum(selfheal_entries_copied_total)",
                )
            )
            selfheal.add_panel(
                TimeSeriesPanel(
                    title="Supervisor restarts / WAL replays",
                    datasource=prom_ds,
                    query="selfheal_supervisor_restarts_total",
                )
            )
            selfheal.add_panel(
                TimeSeriesPanel(
                    title="Lifecycle transitions by kind",
                    datasource=prom_ds,
                    query="selfheal_transitions_total",
                )
            )
            dashboards["selfheal"] = selfheal
        if self.config.enable_reliable_delivery:
            delivery = Dashboard("Alert Delivery", uid="alert-delivery")
            delivery.add_panel(
                StatPanel(
                    title="Pending notifications",
                    datasource=prom_ds,
                    query="sum(alert_delivery_pending)",
                )
            )
            delivery.add_panel(
                StatPanel(
                    title="Notifications delivered",
                    datasource=prom_ds,
                    query="sum(alert_delivery_delivered_total)",
                )
            )
            delivery.add_panel(
                TimeSeriesPanel(
                    title="Delivery retries",
                    datasource=prom_ds,
                    query="alert_delivery_retries_total",
                )
            )
            delivery.add_panel(
                TopListPanel(
                    title="Breaker state (0 closed / 2 open)",
                    datasource=prom_ds,
                    query="topk(8, alert_delivery_breaker_state)",
                    label="receiver",
                )
            )
            delivery.add_panel(
                StatPanel(
                    title="Dead-lettered notifications",
                    datasource=prom_ds,
                    query="sum(alert_delivery_dead_lettered_total)",
                )
            )
            delivery.add_panel(
                TimeSeriesPanel(
                    title="DLQ depth",
                    datasource=prom_ds,
                    query="sum(kafka_dlq_records)",
                )
            )
            dashboards["delivery"] = delivery
        if self.config.enable_multi_tenancy:
            tenants = Dashboard("Tenants", uid="tenants")
            tenants.add_panel(
                TopListPanel(
                    title="Ingest accepted per tenant",
                    datasource=prom_ds,
                    query="topk(16, tenant_ingest_entries_total)",
                    label="tenant",
                )
            )
            tenants.add_panel(
                TimeSeriesPanel(
                    title="Lines discarded since last scrape (alert signal)",
                    datasource=prom_ds,
                    query="tenant_ingest_discarded_recent",
                )
            )
            tenants.add_panel(
                TopListPanel(
                    title="Active streams per tenant",
                    datasource=prom_ds,
                    query="topk(16, tenant_active_streams)",
                    label="tenant",
                )
            )
            tenants.add_panel(
                StatPanel(
                    title="Pushes rejected (429s)",
                    datasource=prom_ds,
                    query="sum(tenant_pushes_rejected_total)",
                )
            )
            tenants.add_panel(
                TimeSeriesPanel(
                    title="Query queue depth per tenant",
                    datasource=prom_ds,
                    query="tenant_query_queue_depth",
                )
            )
            tenants.add_panel(
                TimeSeriesPanel(
                    title="Query wait p95 per tenant",
                    datasource=prom_ds,
                    query="tenant_query_wait_p95_seconds",
                )
            )
            dashboards["tenants"] = tenants
        if self.config.enable_object_storage:
            objstore = Dashboard("Object Storage", uid="object-storage")
            objstore.add_panel(
                StatPanel(
                    title="Cold chunk objects",
                    datasource=prom_ds,
                    query='sum(objstore_objects{kind="chunk"})',
                )
            )
            objstore.add_panel(
                TimeSeriesPanel(
                    title="Bucket bytes by kind",
                    datasource=prom_ds,
                    query="objstore_bytes",
                )
            )
            objstore.add_panel(
                TimeSeriesPanel(
                    title="Consecutive flush failures (alert signal)",
                    datasource=prom_ds,
                    query="objstore_flush_failures_consecutive",
                )
            )
            objstore.add_panel(
                StatPanel(
                    title="Replica dedup ratio",
                    datasource=prom_ds,
                    query="objstore_dedup_ratio",
                )
            )
            objstore.add_panel(
                TimeSeriesPanel(
                    title="Resident bytes freed by flushes",
                    datasource=prom_ds,
                    query='objstore_flush_bytes_total{kind="freed"}',
                )
            )
            objstore.add_panel(
                TimeSeriesPanel(
                    title="Store-gateway cold-read latency",
                    datasource=prom_ds,
                    query="objstore_gateway_last_query_seconds",
                )
            )
            dashboards["objstore"] = objstore
        if self.queryx is not None:
            queryx = Dashboard("Query Engine", uid="query-engine")
            queryx.add_panel(
                StatPanel(
                    title="Realized speedup (serial / wall)",
                    datasource=prom_ds,
                    query="queryx_speedup",
                    unit="x",
                )
            )
            queryx.add_panel(
                TimeSeriesPanel(
                    title="Last query latency: wall vs serial",
                    datasource=prom_ds,
                    query="queryx_last_query_seconds",
                )
            )
            queryx.add_panel(
                TopListPanel(
                    title="Worker busy time (stragglers stand out)",
                    datasource=prom_ds,
                    query="topk(16, queryx_worker_busy_seconds)",
                    label="worker",
                )
            )
            queryx.add_panel(
                TimeSeriesPanel(
                    title="Subquery retries (querier crashes)",
                    datasource=prom_ds,
                    query="queryx_subquery_retries_total",
                )
            )
            queryx.add_panel(
                TimeSeriesPanel(
                    title="Slow queries since last scrape (alert signal)",
                    datasource=prom_ds,
                    query="queryx_slow_queries_recent",
                )
            )
            if self.blooms is not None:
                queryx.add_panel(
                    StatPanel(
                        title="Bloom skip ratio",
                        datasource=prom_ds,
                        query="queryx_bloom_skip_ratio",
                    )
                )
                queryx.add_panel(
                    TimeSeriesPanel(
                        title="Cold chunks considered / fetched / skipped",
                        datasource=prom_ds,
                        query="queryx_gateway_chunks_total",
                    )
                )
            dashboards["queryx"] = queryx
        if self.pattern_ingester is not None:
            patterns = Dashboard("Log Patterns", uid="log-patterns")
            patterns.add_panel(
                StatPanel(
                    title="Distinct templates",
                    datasource=prom_ds,
                    query="patterns_templates",
                )
            )
            patterns.add_panel(
                StatPanel(
                    title="Compression ratio (lines per template)",
                    datasource=prom_ds,
                    query="patterns_compression_ratio",
                    unit="x",
                )
            )
            patterns.add_panel(
                TimeSeriesPanel(
                    title="Lines mined",
                    datasource=prom_ds,
                    query="patterns_lines_mined_total",
                )
            )
            patterns.add_panel(
                TopListPanel(
                    title="Busiest templates",
                    datasource=prom_ds,
                    query="topk(10, patterns_template_lines_total)",
                    label="pattern_id",
                )
            )
            patterns.add_panel(
                TimeSeriesPanel(
                    title="Active bursts (alert signal)",
                    datasource=prom_ds,
                    query="patterns_bursts_active",
                )
            )
            patterns.add_panel(
                StatPanel(
                    title="Novel error templates",
                    datasource=prom_ds,
                    query="patterns_novel_error_templates_total",
                )
            )
            dashboards["patterns"] = patterns
        if self.config.enable_slo:
            fastest = self.config.slo_burn_windows[0]
            slo_dash = Dashboard("SLO Overview", uid="slo-overview")
            slo_dash.add_panel(
                StatPanel(
                    title="Lowest budget remaining",
                    datasource=prom_ds,
                    query="slo_budget_remaining_ratio",
                    reducer="min",
                )
            )
            slo_dash.add_panel(
                StatPanel(
                    title="Budgets exhausted",
                    datasource=prom_ds,
                    query="slo_budget_exhausted",
                )
            )
            slo_dash.add_panel(
                TimeSeriesPanel(
                    title="Error budget remaining",
                    datasource=prom_ds,
                    query="slo_budget_remaining_ratio",
                )
            )
            slo_dash.add_panel(
                HeatmapPanel(
                    title="Burn rate heatmap (slo/window)",
                    datasource=prom_ds,
                    query="slo_burn_rate",
                    scale_max=fastest.factor,
                )
            )
            slo_dash.add_panel(
                TopListPanel(
                    title=f"Hottest {fastest.short} burn",
                    datasource=prom_ds,
                    query=f"topk(8, {burn_metric_name(fastest.short)})",
                    label="slo",
                    unit="x",
                )
            )
            slo_dash.add_panel(
                TimeSeriesPanel(
                    title="Bad events since last scrape",
                    datasource=prom_ds,
                    query="slo_bad_events_recent",
                )
            )
            dashboards["slo"] = slo_dash
        if self.traceql is not None:
            tempo_ds = TempoDatasource(self.traceql)
            tracing = Dashboard("Pipeline Tracing", uid="pipeline-tracing")
            tracing.add_panel(
                TracePanel(
                    title="Slowest delivered alert",
                    datasource=tempo_ds,
                    query='{ span.service = "alertmanager" }',
                )
            )
            tracing.add_panel(
                TimeSeriesPanel(
                    title="Pipeline stage latency p99",
                    datasource=prom_ds,
                    query="tempo_stage_latency_p99_seconds",
                )
            )
            dashboards["tracing"] = tracing
        return dashboards

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register every periodic activity on the clock (idempotent)."""
        if self._started:
            return
        cfg = self.config
        self.hms.run_periodic(cfg.redfish_poll_interval_ns, cfg.sensor_interval_ns)
        self.fm_monitor.run_periodic(cfg.fm_poll_interval_ns)
        self.clock.every(cfg.consumer_interval_ns, self._pump_consumers)
        self.clock.every(cfg.scrape_interval_ns, self._scrape_tick)
        self.clock.every(cfg.gpfs_interval_ns, self._scrape_gpfs)
        self.console.run_periodic(
            cfg.console_interval_ns, cfg.console_lines_per_tick
        )
        self.ldms.run_periodic(cfg.ldms_interval_ns)
        self.clock.every(cfg.facility_interval_ns, self._sample_facility)
        self.ruler.run_periodic(cfg.ruler_interval_ns)
        self.vmalert.run_periodic(cfg.vmalert_interval_ns)
        if self.proactive is not None:
            self.proactive.run_periodic(cfg.proactive_interval_ns)
        if self.trace_metrics is not None:
            self.clock.every(
                cfg.tracing_metrics_interval_ns, self.trace_metrics.export
            )
        if self.shipper is not None:
            self.clock.every(
                cfg.objstore_flush_interval_ns, self.shipper.flush
            )
        if self.compactor is not None:
            self.clock.every(
                cfg.objstore_compaction_interval_ns, self.compactor.run
            )
        if self.pattern_ruler is not None:
            self.pattern_ruler.run_periodic(cfg.patterns_ruler_interval_ns)
        if self.pattern_store is not None and self.objstore is not None:
            # Live pattern blocks ship on the chunk-flush cadence.
            self.clock.every(
                cfg.objstore_flush_interval_ns,
                self.pattern_store.persist_dirty,
            )
        if self.selfheal is not None:
            self.selfheal.start()
        if self.slo_manager is not None:
            self.slo_manager.run_periodic(cfg.slo_eval_interval_ns)
        self.clock.every(minutes(1), self._mirror_alert_events)
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

    def _pump_consumers(self) -> None:
        self.redfish_consumer.pump()
        self.sensor_consumer.pump()
        self.syslog_consumer.pump()
        self.container_consumer.pump()
        self.console_consumer.pump()
        self.ldms_consumer.pump()

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
            dumps_compact({"labels": labels, "ts": timestamp_ns, "line": line}),
            key=labels.get("hostname"),
            timestamp_ns=timestamp_ns,
        )

    def publish_container_log(
        self, labels: dict[str, str], timestamp_ns: int, line: str
    ) -> None:
        self.broker.produce(
            TOPIC_CONTAINER_LOGS,
            dumps_compact({"labels": labels, "ts": timestamp_ns, "line": line}),
            key=labels.get("app"),
            timestamp_ns=timestamp_ns,
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
        if self.journal is not None:
            stats = self.journal.stats()
            summary["deliveries_pending"] = float(stats["pending"])
            summary["deliveries_delivered"] = float(stats["delivered"])
            summary["deliveries_dead_lettered"] = float(stats["failed"])
            summary["records_dead_lettered"] = float(
                self.broker.records_dead_lettered
            )
        if self.admission is not None:
            counters = self.admission.counters.values()
            summary["tenants"] = float(len(self.admission.tenants()))
            summary["tenant_entries_discarded"] = float(
                sum(c.entries_discarded for c in counters)
            )
            summary["tenant_pushes_rejected"] = float(
                sum(c.pushes_rejected for c in counters)
            )
        if self.scheduler is not None:
            summary["tenant_queries_completed"] = float(
                sum(s.completed for s in self.scheduler.stats.values())
            )
        if self.tiered is not None and self.shipper is not None:
            ship = self.shipper.counters()
            summary["objstore_chunks_shipped"] = float(ship["chunks_shipped"])
            summary["objstore_chunks_deduped"] = float(ship["chunks_deduped"])
            summary["objstore_flush_failures"] = float(ship["flush_failures"])
            summary["objstore_cold_chunks"] = float(
                self.tiered.cold_chunk_count()
            )
            summary["objstore_cold_bytes"] = float(self.tiered.cold_bytes())
        if self.queryx is not None:
            stats = self.queryx.stats()
            summary["queryx_queries"] = float(stats["queries_total"])
            summary["queryx_subqueries"] = float(stats["subqueries_total"])
            summary["queryx_slow_queries"] = float(stats["slow_queries_total"])
            summary["queryx_retries"] = float(stats["pool_retries_total"])
            summary["queryx_speedup"] = float(stats["speedup"])
        if self.selfheal is not None:
            for key, value in self.selfheal.health_summary().items():
                summary[f"selfheal_{key}"] = value
        if self.blooms is not None:
            bloom_stats = self.blooms.counters()
            summary["queryx_bloom_blocks"] = float(bloom_stats["blocks"])
            summary["queryx_chunks_skipped"] = float(
                self.store_gateway.chunks_skipped_total
                if self.store_gateway is not None
                else 0
            )
        if self.pattern_ingester is not None and self.pattern_store is not None:
            summary["patterns_distinct_templates"] = float(
                self.pattern_store.pattern_count()
            )
            summary["patterns_lines_mined"] = float(
                self.pattern_ingester.lines_observed
            )
            summary["patterns_compression_ratio"] = (
                self.pattern_ingester.compression_ratio()
            )
            if self.pattern_ruler is not None:
                summary["patterns_bursts_detected"] = float(
                    self.pattern_ruler.bursts_detected
                )
                summary["patterns_novel_errors"] = float(
                    self.pattern_ruler.novel_detected
                )
        if self.slo_manager is not None:
            exhausted = 0.0
            for row in self.slo_manager.status():
                name = str(row["slo"]).replace("-", "_")
                summary[f"slo_{name}_budget_remaining"] = float(
                    row["budget_remaining"]
                )
                if row["state"] == "exhausted":
                    exhausted += 1.0
            summary["slo_budgets_exhausted"] = exhausted
            summary["slo_recording_samples"] = float(
                self.slo_manager.recording.samples_recorded
            )
        return summary
