"""LDMS: the Lightweight Distributed Metric Service sampler plane.

Figure 1 of the paper routes "LDMS metrics" through Kafka alongside the
environmental data.  LDMS samples *host-side* OS metrics on every compute
node (load, memory, network counters) at high frequency — complementary
to the Redfish hardware telemetry.  This module models the samplers and
their aggregator, publishing per-node metric sets into a Kafka topic in
the same JSON envelope the sensor pipeline uses.
"""

from __future__ import annotations

import numpy as np

from repro.bus.broker import Broker, TopicConfig
from repro.common.errors import ValidationError
from repro.common.jsonutil import dumps_compact
from repro.common.simclock import SimClock
from repro.cluster.topology import Cluster, NodeState

TOPIC_LDMS = "cray-ldms-metrics"

#: metric name -> (mean, stddev, is_counter)
_METRICS: dict[str, tuple[float, float, bool]] = {
    "ldms_loadavg_1m": (8.0, 4.0, False),
    "ldms_mem_used_gb": (180.0, 40.0, False),
    "ldms_hsn_tx_bytes": (2.0e9, 8.0e8, True),
    "ldms_hsn_rx_bytes": (2.0e9, 8.0e8, True),
    "ldms_procs_running": (64.0, 20.0, False),
}


class LdmsAggregator:
    """Samples every UP node and publishes one envelope per node.

    Counters accumulate; gauges are mean-reverting draws.  Down nodes
    stop reporting — their silence is itself a signal (the `up`-style
    absence the threshold rules catch via ``node_up``).
    """

    def __init__(
        self,
        broker: Broker,
        clock: SimClock,
        cluster: Cluster,
        seed: int = 0,
        cluster_name: str = "perlmutter",
    ) -> None:
        broker.ensure_topic(TOPIC_LDMS, TopicConfig(partitions=4))
        self._broker = broker
        self._clock = clock
        self._cluster = cluster
        self._cluster_name = cluster_name
        self._rng = np.random.default_rng(seed)
        self._nodes = sorted(cluster.nodes)
        n = len(self._nodes)
        self._counters = {
            name: np.zeros(n)
            for name, (_, _, is_counter) in _METRICS.items()
            if is_counter
        }
        self.samples_published = 0

    def sample_once(self) -> int:
        """One sampling pass over the fleet; returns envelopes published."""
        now = self._clock.now_ns
        published = 0
        gauges = {}
        for name, (mean, std, is_counter) in _METRICS.items():
            draws = mean + std * self._rng.standard_normal(len(self._nodes))
            draws = np.maximum(draws, 0.0)
            if is_counter:
                self._counters[name] += draws
                gauges[name] = self._counters[name]
            else:
                gauges[name] = draws
        for i, xname in enumerate(self._nodes):
            if self._cluster.nodes[xname].state is not NodeState.UP:
                continue
            metrics = {name: round(float(values[i]), 3)
                       for name, values in gauges.items()}
            envelope = {
                "Context": str(xname),
                "Timestamp": now,
                "Cluster": self._cluster_name,
                "Metrics": metrics,
            }
            self._broker.produce(
                TOPIC_LDMS, dumps_compact(envelope), key=str(xname),
                timestamp_ns=now,
            )
            published += 1
        self.samples_published += published
        return published


class LdmsConsumer:
    """The k3s pod reading LDMS envelopes into VictoriaMetrics."""

    def __init__(self, api, token: str, warehouse) -> None:
        self._api = api
        self._warehouse = warehouse
        self._sub = api.subscribe(token, TOPIC_LDMS)
        self.records_processed = 0
        self.records_failed = 0

    def pump(self, max_records: int = 1000) -> int:
        from repro.common.jsonutil import loads

        records = self._api.fetch(self._sub, max_records)
        done = 0
        for record in records:
            try:
                envelope = loads(record.value)
                context = envelope["Context"]
                ts = int(envelope["Timestamp"])
                cluster = envelope.get("Cluster", "")
                metrics = envelope["Metrics"]
                for name, value in metrics.items():
                    self._warehouse.ingest_metric(
                        name,
                        {"xname": context, "cluster": cluster},
                        float(value),
                        ts,
                    )
                done += 1
            except (KeyError, TypeError, ValueError, ValidationError):
                self.records_failed += 1
        self.records_processed += done
        return done
