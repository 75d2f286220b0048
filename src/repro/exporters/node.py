"""node-exporter equivalent: per-node health metrics.

Installed by HPE on the real system; here it reads the synthetic cluster
and sensor bank.  One exporter instance can cover any subset of nodes;
the framework builds a single one over all of them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.common.xname import XName
from repro.cluster.sensors import SensorBank, SensorId, SensorKind
from repro.cluster.topology import Cluster, NodeState
from repro.exporters.exporter import Exporter, Reading

_NODES = (
    ("node_up", "gauge", "Whether the node is up."),
    ("node_temp_celsius", "gauge", "Node temperature in Celsius."),
    ("node_power_watts", "gauge", "Node power draw in Watts."),
)


def _read_nodes(
    cluster: Cluster, sensors: SensorBank, nodes: list[XName]
) -> Iterator[Reading]:
    for xname in nodes:
        labels = {"xname": str(xname)}
        yield "node_up", cluster.nodes[xname].state is NodeState.UP, labels
        temp = sensors.read(SensorId(xname, SensorKind.TEMPERATURE_C))
        yield "node_temp_celsius", temp, labels
        power = sensors.read(SensorId(xname, SensorKind.POWER_W))
        yield "node_power_watts", power, labels


class NodeExporter(Exporter):
    """Exports ``node_up``, ``node_temp_celsius`` and ``node_power_watts``."""

    def __init__(
        self,
        cluster: Cluster,
        sensors: SensorBank,
        nodes: Iterable[XName] | None = None,
    ) -> None:
        covered = sorted(nodes) if nodes is not None else sorted(cluster.nodes)
        super().__init__((_NODES, _read_nodes, cluster, sensors, covered))
