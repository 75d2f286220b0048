"""The telemetry front door's bytes are pinned (DESIGN §3, "The telemetry
write path: one resolve per node and sensor").

A seeded planes-off framework on a two-cabinet machine runs a few
sim-minutes through a cabinet leak and a node outage, each of which
begins and ends inside the run.  sha256 digests pin every record the
Redfish, sensor and LDMS topics hold — topic, partition, offset, key,
value, timestamp — and every series and column the TSDB ends with.  A
failing digest means a byte on the wire or in the store moved; change a
constant only for a move you mean.
"""

import hashlib

import numpy as np

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.simclock import minutes
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.planes import PLANES
from repro.shasta.hms import TOPIC_REDFISH_EVENTS, TOPIC_SENSOR_TELEMETRY
from repro.shasta.ldms import TOPIC_LDMS

RECORDS_DIGEST = "0a1db285aedb6c2735b74b2552401b375c54e2662383c79ae7e143c14fcdfa5d"
TSDB_DIGEST = "a26f80710891a930dc5621c779436b77fa34e6f8e7eb24a038b3381ba879e830"

#: Set both ways, so the REPRO_* environment of a CI leg has no say.
PLANES_OFF = {plane.flag: False for plane in PLANES}
TOPICS = (TOPIC_REDFISH_EVENTS, TOPIC_SENSOR_TELEMETRY, TOPIC_LDMS)


def faulted_run() -> MonitoringFramework:
    fw = MonitoringFramework(FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=2, chassis_per_cabinet=2),
        seed=7, **PLANES_OFF,
    ))
    fw.start()
    cabinet = sorted(fw.cluster.cabinets)[1]
    node = sorted(fw.cluster.nodes)[5]
    fw.faults.schedule(
        FaultKind.CABINET_LEAK, cabinet, delay_ns=minutes(1), duration_ns=minutes(2),
        zone="Rear", sensor="B",
    )
    fw.faults.schedule(
        FaultKind.NODE_DOWN, node, delay_ns=minutes(2), duration_ns=minutes(2)
    )
    fw.run_for(minutes(5))
    return fw


def records_digest(fw) -> tuple[str, dict[str, int]]:
    digest = hashlib.sha256()
    counts = {}
    for topic in TOPICS:
        records = fw.broker.poll("telemetry-bytes", topic, 1 << 20)
        counts[topic] = len(records)
        for r in sorted(records, key=lambda r: (r.partition, r.offset)):
            digest.update(repr(
                (r.topic, r.partition, r.offset, r.key, r.value, r.timestamp_ns)
            ).encode())
    return digest.hexdigest(), counts


def tsdb_digest(tsdb) -> str:
    digest = hashlib.sha256()
    series = tsdb.select([], 0, 1 << 62)
    assert len(series) == tsdb.series_count()
    for labels, ts, values in series:
        digest.update(repr(labels.items_tuple()).encode())
        digest.update(np.ascontiguousarray(ts, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestTelemetryBytes:
    def test_records_and_series_are_pinned(self):
        fw = faulted_run()
        records, counts = records_digest(fw)
        # Both faults begin and end: four events, at least one per side.
        assert counts[TOPIC_REDFISH_EVENTS] >= 2
        assert counts[TOPIC_SENSOR_TELEMETRY] > 0 and counts[TOPIC_LDMS] > 0
        assert (records, tsdb_digest(fw.warehouse.tsdb)) == (RECORDS_DIGEST, TSDB_DIGEST)
