"""The telemetry write path resolves each node and sensor once (DESIGN §3,
"The telemetry write path: one resolve per node and sensor").

The sensor and LDMS envelopes are spliced from pre-encoded heads; for any
xname, sensor, index, timestamp and float they must be the bytes
``dumps_compact`` makes of the dict the per-reading encoder built.  An
``XName`` keeps its text, sort key and hash, and the hash is the
dataclass's.  The budget at the bottom counts calls, not time: a
steady-state tick of the front door sorts, formats, encodes and labels
nothing it did on the first tick.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bus.broker import Broker
from repro.cluster.sensors import SensorBank, SensorId, SensorKind
from repro.cluster.topology import Cluster, ClusterSpec
from repro.common import jsonutil
from repro.common.jsonutil import dumps_compact
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, seconds
from repro.common.xname import XName
from repro.core.consumers import SensorMetricConsumer
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.omni.warehouse import OmniWarehouse
from repro.core.planes import PLANES
from repro.shasta import hms as hms_module, ldms as ldms_module
from repro.shasta.hms import HmsCollector, TOPIC_SENSOR_TELEMETRY
from repro.shasta.ldms import LdmsAggregator, TOPIC_LDMS, _METRICS
from repro.shasta.telemetry_api import TelemetryAPI
from tests.counting import counted
from repro.tempo.instrument import PipelineTracing
from tests.tracing import off_tracer

#: Spellings ``repr`` and ``round`` are easy to get wrong on: non-finite,
#: signed zero, past 2**53, the smallest subnormal, and ties at the
#: third decimal that binary floats cannot hold exactly.
HARD_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, -1e16, 5e-324, 1e308,
    2.675, 1.0005, 0.0005, -0.0005, 0.1235, 1234.5675, 2.5e-4, 9.9995,
]
FLOATS = st.one_of(st.sampled_from(HARD_FLOATS), st.floats())
LEVEL = st.integers(0, 10**6)
XNAMES = st.one_of(
    st.builds(XName, LEVEL),
    st.builds(XName, LEVEL, LEVEL),
    st.builds(lambda c, ch, s, b: XName(c, ch, slot=s, bmc=b), LEVEL, LEVEL, LEVEL, LEVEL),
    st.builds(lambda c, ch, r, b: XName(c, ch, switch=r, bmc=b), LEVEL, LEVEL, LEVEL, LEVEL),
    st.builds(
        lambda c, ch, s, b, n: XName(c, ch, slot=s, bmc=b, node=n),
        LEVEL, LEVEL, LEVEL, LEVEL, LEVEL,
    ),
)
TIMESTAMPS = st.integers(0, 2**63 - 1)


class FixedBank:
    """The two things the collector reads of a bank, with chosen values."""

    def __init__(self, readings: list[tuple[SensorId, float]]) -> None:
        self._readings = readings

    def __len__(self) -> int:
        return len(self._readings)

    def sensors(self) -> list[SensorId]:
        return [sid for sid, _ in self._readings]

    def snapshot(self) -> list[float]:
        return [value for _, value in self._readings]


def old_sensor_sample(sid: SensorId, now: int, value: float) -> str:
    """The per-reading encoding the pre-encoded head replaced."""
    return dumps_compact({
        "Context": str(sid.xname),
        "PhysicalContext": sid.kind.value,
        "Index": sid.index,
        "Timestamp": now,
        "Value": round(value, 3),
    })


class TestEnvelopesAreTheOldBytes:
    @settings(deadline=None, max_examples=150)
    @given(
        readings=st.lists(
            st.tuples(XNAMES, st.sampled_from(list(SensorKind)), st.integers(), FLOATS),
            min_size=1, max_size=6,
        ),
        now=TIMESTAMPS,
    )
    @example(readings=[(XName(1000, 1, bmc=0), SensorKind.FAN_RPM, 0, v) for v in HARD_FLOATS],
             now=0)
    def test_sensor_samples(self, readings, now):
        clock = SimClock(now)
        broker = Broker(clock)
        bank = FixedBank([(SensorId(x, kind, index), v) for x, kind, index, v in readings])
        hms = HmsCollector(broker, clock, sensors=bank, tracer=off_tracer())
        expected = sorted(
            (old_sensor_sample(SensorId(x, kind, index), now, v), str(x))
            for x, kind, index, v in readings
        )
        for _ in range(2):  # a first sight, then the cached heads
            assert hms.collect_sensors() == len(readings)
            records = broker.poll("t", TOPIC_SENSOR_TELEMETRY, 1000)
            assert sorted((r.value, r.key) for r in records) == expected

    @settings(deadline=None, max_examples=100)
    @given(
        first_cabinet=st.integers(0, 10**9),
        cluster_name=st.text(max_size=8),
        values=st.lists(FLOATS, min_size=8 * len(_METRICS), max_size=8 * len(_METRICS)),
        now=TIMESTAMPS,
    )
    @example(first_cabinet=1000, cluster_name="perlmutter",
             values=(HARD_FLOATS * 3)[: 8 * len(_METRICS)], now=1)
    def test_ldms_envelopes(self, first_cabinet, cluster_name, values, now):
        clock = SimClock(now)
        broker = Broker(clock)
        cluster = Cluster(ClusterSpec(
            cabinets=1, chassis_per_cabinet=1, slots_per_chassis=4,
            first_cabinet=first_cabinet,
        ))
        agg = LdmsAggregator(broker, clock, cluster, cluster_name=cluster_name)
        nodes = sorted(cluster.nodes)
        gauges = {
            name: np.array(values[i * len(nodes):(i + 1) * len(nodes)])
            for i, name in enumerate(_METRICS)
        }
        assert agg._publish(now, gauges) == len(nodes)
        expected = [
            (dumps_compact({
                "Context": str(x),
                "Timestamp": now,
                "Cluster": cluster_name,
                "Metrics": {name: round(float(col[i]), 3) for name, col in gauges.items()},
            }), str(x))
            for i, x in enumerate(nodes)
        ]
        records = broker.poll("t", TOPIC_LDMS, 1000)
        assert sorted((r.value, r.key) for r in records) == sorted(expected)


class TestXNameKeepsItsIdentity:
    @given(XNAMES)
    def test_hash_is_the_field_tuples(self, x):
        assert hash(x) == hash((x.cabinet, x.chassis, x.slot, x.switch, x.bmc, x.node))
        assert x == XName.parse(str(x)) and hash(x) == hash(XName.parse(str(x)))

    @given(st.lists(XNAMES, max_size=30))
    def test_sorted_is_unchanged(self, names):
        def reference_key(x):  # the order key as it was computed per compare
            def k(v):
                return -1 if v is None else v
            return (x.cabinet, k(x.chassis), 0 if x.switch is None else 1,
                    k(x.slot if x.switch is None else x.switch), k(x.bmc), k(x.node))

        assert sorted(names) == sorted(names, key=reference_key)
        for a, b in zip(names, names[1:]):
            ka, kb = reference_key(a), reference_key(b)
            assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)


class TestSensorPodTable:
    """The sensor pod's series table keeps the first-sight contract."""

    @staticmethod
    def pod(*samples: str):
        clock = SimClock(0)
        broker = Broker(clock)
        broker.ensure_topic(TOPIC_SENSOR_TELEMETRY)
        api = TelemetryAPI(broker)
        api.register_client("pods", "tok")
        warehouse = OmniWarehouse(clock)
        consumer = SensorMetricConsumer(api, "tok", TOPIC_SENSOR_TELEMETRY, warehouse,
            tracing=PipelineTracing(off_tracer()))
        for sample in samples:
            broker.produce(TOPIC_SENSOR_TELEMETRY, sample)
        consumer.pump()
        return consumer, warehouse.tsdb

    def test_equal_keys_of_other_types_do_not_alias(self):
        head = '{"Context":"x1c0b0","PhysicalContext":"fan_speed_rpm","Timestamp":%d,'
        consumer, tsdb = self.pod(*(
            head % ts + f'"Value":1.0,"Index":{index}}}'
            for ts, index in enumerate(["1", "1.0", "true", "1", "1.0", "true"])
        ))
        assert consumer.records_processed == 6
        assert sorted(labels["index"] for labels, _, _ in tsdb.select([], 0, 10)) == [
            "1", "1.0", "True",
        ]

    def test_a_refused_sample_is_refused_every_time(self):
        bad = [
            # A context no label may hold, twice: it never joins the table.
            '{"Context":7,"PhysicalContext":"power_watts","Index":0,"Timestamp":1,"Value":1}',
            '{"Context":7,"PhysicalContext":"power_watts","Index":0,"Timestamp":2,"Value":1}',
            # A timestamp no int holds is a malformed sample, not a crash.
            '{"Context":"x1","PhysicalContext":"power_watts","Index":0,'
            '"Timestamp":1e999,"Value":1}',
        ]
        consumer, tsdb = self.pod(*bad)
        assert (consumer.records_failed, consumer.records_processed) == (3, 0)
        assert consumer._series == {} and tsdb.samples_ingested == 0


#: Set both ways, so the REPRO_* environment of a CI leg has no say.
PLANES_OFF = {plane.flag: False for plane in PLANES}


class TestSteadyStateBudget:
    """Call counts, no timing: the guard that the rule stays kept."""

    TICKS = 3

    @pytest.mark.parametrize("reliable", [False, True], ids=["at-most-once", "reliable"])
    def test_a_telemetry_tick_of_a_known_fleet(self, reliable):
        fw = MonitoringFramework(FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=2, chassis_per_cabinet=2),
            **dict(PLANES_OFF, enable_reliable_delivery=reliable),
        ))
        sensors, nodes = len(fw.sensors), len(fw.cluster.nodes)

        def tick() -> None:
            fw.clock.advance(seconds(15))
            fw.sensors.step()
            fw.hms.collect_events()
            fw.hms.collect_sensors()
            fw.ldms.sample_once()
            fw.node_exporter.scrape()
            fw.sensor_consumer.pump(10_000)
            fw.ldms_consumer.pump(10_000)

        tick()  # first sight of every sensor and node pays in full
        samples = fw.warehouse.tsdb.samples_ingested
        with (
            counted(XName, "__lt__") as less,
            counted(XName, "_format") as formats,
            counted(SensorBank, "read") as reads,
            counted(LabelSet, "__init__") as labelsets,
            counted(Broker, "produce") as produces,
            mock.patch.object(hms_module, "dumps_compact", wraps=dumps_compact) as hms_encodes,
            mock.patch.object(ldms_module, "dumps_compact", wraps=dumps_compact) as ldms_encodes,
            mock.patch.object(jsonutil, "_ENCODER", mock.Mock(wraps=jsonutil._ENCODER)) as encoder,
        ):
            for _ in range(self.TICKS):
                tick()

        assert less.call_count == 0
        assert formats.call_count == 0
        assert reads.call_count == 0
        assert labelsets.call_count == 0
        assert len(fw.sensor_consumer._series) == sensors
        assert hms_encodes.call_count == ldms_encodes.call_count == 0
        assert encoder.encode.call_count == 0
        # Exact per reading: one record per sensor and per node's envelope,
        # one sample per sensor reading and per LDMS metric.
        assert produces.call_count == self.TICKS * (sensors + nodes)
        assert fw.warehouse.tsdb.samples_ingested - samples == self.TICKS * (
            sensors + nodes * len(_METRICS)
        )
