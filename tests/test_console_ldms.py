"""Tests for the console collector and LDMS sampler/consumer."""

import json

import pytest

from repro.bus.broker import Broker
from repro.cluster.faults import FaultKind
from repro.common.errors import ValidationError
from repro.common.simclock import SimClock, minutes, seconds
from repro.cluster.topology import Cluster, ClusterSpec, NodeState
from repro.core.consumers import MAX_DELIVERY_FAILURES
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.omni.warehouse import OmniWarehouse
from repro.shasta.console import ConsoleCollector, TOPIC_CONSOLE_LOGS
from repro.shasta.ldms import LdmsAggregator, LdmsConsumer, TOPIC_LDMS
from repro.shasta.telemetry_api import TelemetryAPI
from repro.tempo.instrument import PipelineTracing
from tests.tracing import off_tracer


@pytest.fixture
def world():
    clock = SimClock(0)
    cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=1))
    broker = Broker(clock)
    return clock, cluster, broker


class TestConsole:
    def test_needs_nodes(self, world):
        clock, _, broker = world
        with pytest.raises(ValidationError):
            ConsoleCollector(broker, clock, [])

    def test_chatter_published_with_labels(self, world):
        clock, cluster, broker = world
        collector = ConsoleCollector(broker, clock, sorted(cluster.nodes))
        assert collector.emit_chatter(20) == 20
        records = broker.poll("t", TOPIC_CONSOLE_LOGS, 100)
        assert len(records) == 20
        envelope = json.loads(records[0].value)
        assert envelope["labels"]["data_type"] == "console_log"
        assert envelope["labels"]["hostname"].startswith("x")

    def test_panic_line_signature(self, world):
        clock, cluster, broker = world
        collector = ConsoleCollector(broker, clock, sorted(cluster.nodes))
        node = sorted(cluster.nodes)[0]
        line = collector.emit_panic(node)
        assert "Kernel panic" in line or "Machine Check" in line

    def test_panic_unknown_node_rejected(self, world):
        clock, cluster, broker = world
        collector = ConsoleCollector(broker, clock, sorted(cluster.nodes)[:2])
        with pytest.raises(ValidationError):
            collector.emit_panic("x99c0s0b0n0")

    def test_deterministic(self, world):
        clock, cluster, broker = world
        a = ConsoleCollector(broker, clock, sorted(cluster.nodes), seed=1)
        b_broker = Broker(clock)
        b = ConsoleCollector(b_broker, clock, sorted(cluster.nodes), seed=1)
        a.emit_chatter(10)
        b.emit_chatter(10)
        va = [r.value for r in broker.poll("t", TOPIC_CONSOLE_LOGS, 100)]
        vb = [r.value for r in b_broker.poll("t", TOPIC_CONSOLE_LOGS, 100)]
        assert va == vb

    def test_periodic(self, world):
        clock, cluster, broker = world
        collector = ConsoleCollector(broker, clock, sorted(cluster.nodes))
        clock.every(seconds(30), lambda: collector.emit_chatter(3))
        clock.advance(minutes(2))
        assert collector.lines_published == 12


class TestLdms:
    def test_sampling_covers_up_nodes(self, world):
        clock, cluster, broker = world
        agg = LdmsAggregator(broker, clock, cluster)
        assert agg.sample_once() == len(cluster.nodes)
        records = broker.poll("t", TOPIC_LDMS, 1000)
        envelope = json.loads(records[0].value)
        assert {"Context", "Timestamp", "Metrics"} <= set(envelope)
        assert "ldms_loadavg_1m" in envelope["Metrics"]

    def test_down_nodes_not_sampled(self, world):
        clock, cluster, broker = world
        agg = LdmsAggregator(broker, clock, cluster)
        down = sorted(cluster.nodes)[0]
        cluster.set_node_state(down, NodeState.DOWN)
        assert agg.sample_once() == len(cluster.nodes) - 1

    def test_counters_monotone(self, world):
        clock, cluster, broker = world
        agg = LdmsAggregator(broker, clock, cluster)
        agg.sample_once()
        clock.advance(seconds(10))
        agg.sample_once()
        records = broker.poll("t", TOPIC_LDMS, 1000)
        node = str(sorted(cluster.nodes)[0])
        tx = [
            json.loads(r.value)["Metrics"]["ldms_hsn_tx_bytes"]
            for r in records
            if json.loads(r.value)["Context"] == node
        ]
        assert len(tx) == 2 and tx[1] > tx[0]

    def test_consumer_ingests_to_tsdb(self, world):
        clock, cluster, broker = world
        agg = LdmsAggregator(broker, clock, cluster)
        api = TelemetryAPI(broker)
        api.register_client("pods", "tok")
        warehouse = OmniWarehouse(clock)
        consumer = LdmsConsumer(api, "tok", warehouse, tracing=PipelineTracing(off_tracer()))
        agg.sample_once()
        assert consumer.pump() == len(cluster.nodes)
        samples = warehouse.tsdb.samples_ingested
        assert samples == len(cluster.nodes) * 5  # five LDMS metrics

    def test_consumer_counts_garbage(self, world):
        clock, cluster, broker = world
        LdmsAggregator(broker, clock, cluster)  # creates the topic
        broker.produce(TOPIC_LDMS, "garbage")
        api = TelemetryAPI(broker)
        api.register_client("pods", "tok")
        consumer = LdmsConsumer(api, "tok", OmniWarehouse(clock),
            tracing=PipelineTracing(off_tracer()))
        consumer.pump()
        assert consumer.records_failed == 1

    def test_periodic(self, world):
        clock, cluster, broker = world
        agg = LdmsAggregator(broker, clock, cluster)
        clock.every(seconds(15), agg.sample_once)
        clock.advance(minutes(1))
        assert agg.samples_published == 4 * len(cluster.nodes)

    @pytest.mark.parametrize("metrics", [
        '{"a":1.0,"b":"oops"}', '{"a":1.0,"b":null}', '{"a":1.0,"":2.0}',
        '{"a":1.0,"b":1%s}' % ("0" * 400), '[1.0]',
    ], ids=["str", "null", "unnamed", "overflow", "not-an-object"])
    def test_a_refused_envelope_writes_nothing(self, world, metrics):
        """Every value converts before the first is stored: an envelope
        with one bad metric is refused whole, not half-ingested."""
        clock, _cluster, broker = world
        broker.ensure_topic(TOPIC_LDMS)
        api = TelemetryAPI(broker)
        api.register_client("pods", "tok")
        warehouse = OmniWarehouse(clock)
        consumer = LdmsConsumer(api, "tok", warehouse, tracing=PipelineTracing(off_tracer()))
        broker.produce(
            TOPIC_LDMS,
            '{"Context":"x1000c0s0b0n0","Timestamp":5,"Cluster":"p",'
            f'"Metrics":{metrics}}}',
        )
        assert consumer.pump() == 0
        assert consumer.records_failed == 1
        assert warehouse.tsdb.samples_ingested == 0
        assert warehouse.messages_ingested == 0


class TestLdmsPod:
    """The LDMS pod is one of the framework's consumer pods: it takes the
    same delivery guarantee and the same throttle as the others."""

    @pytest.fixture
    def fw(self):
        return MonitoringFramework(FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
            enable_reliable_delivery=True,
        ))

    def test_poison_record_quarantines_under_reliable_delivery(self, fw):
        fw.broker.produce(TOPIC_LDMS, "not json")
        for _ in range(MAX_DELIVERY_FAILURES + 1):
            fw.ldms_consumer.pump()
        assert fw.ldms_consumer.records_failed == MAX_DELIVERY_FAILURES
        assert fw.ldms_consumer.records_quarantined == 1
        assert fw.broker.dlq_depth(TOPIC_LDMS) == 1
        assert fw.ldms_consumer.lag() == 0

    def test_slow_consumer_throttles_the_ldms_pod(self, fw):
        assert list(fw.consumers)[-1] == "ldms"
        assert fw.consumers["ldms"] is fw.ldms_consumer
        fw.faults.schedule(
            FaultKind.SLOW_CONSUMER, "ldms", duration_ns=minutes(5), max_per_pump=2
        )
        fw.run_for(1)
        published = fw.ldms.sample_once()
        assert published > 2
        assert fw.ldms_consumer.pump() == 2
        assert fw.ldms_consumer.lag() == published - 2
