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
from repro.common.jsonutil import dumps_compact, json_float
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
_NAMES = sorted(_METRICS)
#: The envelope's metrics object as JSON sorts it: ``"name":%s`` per metric.
_METRICS_FORMAT = ",".join(f"{dumps_compact(name)}:%s" for name in _NAMES)


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
        self._rng = np.random.default_rng(seed)
        nodes = sorted(cluster.nodes)
        n = len(nodes)
        self._counters = {
            name: np.zeros(n)
            for name, (_, _, is_counter) in _METRICS.items()
            if is_counter
        }
        # What an envelope owes to its node alone, resolved once: the
        # envelope up to its metrics (keys sort Cluster, Context, Metrics,
        # Timestamp), the record key and the node whose state gates it.
        self._nodes = [
            (
                dumps_compact({"Cluster": cluster_name, "Context": str(x)})[:-1]
                + ',"Metrics":{',
                str(x),
                cluster.nodes[x],
            )
            for x in nodes
        ]
        self.samples_published = 0

    def sample_once(self) -> int:
        """One sampling pass over the fleet; returns envelopes published."""
        gauges = {}
        for name, (mean, std, is_counter) in _METRICS.items():
            draws = mean + std * self._rng.standard_normal(len(self._nodes))
            draws = np.maximum(draws, 0.0)
            if is_counter:
                self._counters[name] += draws
                gauges[name] = self._counters[name]
            else:
                gauges[name] = draws
        return self._publish(self._clock.now_ns, gauges)

    def _publish(self, now: int, gauges: dict[str, np.ndarray]) -> int:
        """One envelope per UP node from the metric columns ``gauges``."""
        # Python's correctly rounded ``round``, value by value: NumPy's
        # rounding is not the same function, and the wire bytes would move.
        rows = zip(*(gauges[name].tolist() for name in _NAMES))
        tail = f'}},"Timestamp":{now:d}}}'
        published = 0
        for (head, key, node), row in zip(self._nodes, rows):
            if node.state is not NodeState.UP:
                continue
            metrics = _METRICS_FORMAT % tuple(json_float(round(v, 3)) for v in row)
            self._broker.produce(
                TOPIC_LDMS, f"{head}{metrics}{tail}", key=key, timestamp_ns=now,
            )
            published += 1
        self.samples_published += published
        return published


def __getattr__(name: str):
    """``LdmsConsumer`` stays importable from here: the pod reading this
    topic is one of the framework's consumers and lives beside them in
    :mod:`repro.core.consumers`, which imports this module — so the name
    is resolved on first use rather than at import."""
    if name == "LdmsConsumer":
        from repro.core.consumers import LdmsConsumer

        return LdmsConsumer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
