"""node-exporter equivalent: per-node health metrics.

Installed by HPE on the real system; here it reads the synthetic cluster
and sensor bank.  One exporter instance can cover any subset of nodes;
the framework builds a single one over all of them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.common.xname import XName
from repro.cluster.sensors import SensorBank, SensorId, SensorKind
from repro.cluster.topology import Cluster, ComputeNode, NodeState
from repro.exporters.exporter import Exporter, Reading

_NODES = (
    ("node_up", "gauge", "Whether the node is up."),
    ("node_temp_celsius", "gauge", "Node temperature in Celsius."),
    ("node_power_watts", "gauge", "Node power draw in Watts."),
)


def _read_nodes(
    sensors: SensorBank, nodes: list[tuple[dict[str, str], ComputeNode, int, int]]
) -> Iterator[Reading]:
    values = sensors.snapshot()
    for labels, node, temp, power in nodes:
        yield "node_up", node.state is NodeState.UP, labels
        yield "node_temp_celsius", values[temp], labels
        yield "node_power_watts", values[power], labels


class NodeExporter(Exporter):
    """Exports ``node_up``, ``node_temp_celsius`` and ``node_power_watts``."""

    def __init__(
        self,
        cluster: Cluster,
        sensors: SensorBank,
        nodes: Iterable[XName] | None = None,
    ) -> None:
        covered = sorted(nodes) if nodes is not None else sorted(cluster.nodes)
        # Each covered node resolved once: its labels, its state holder
        # and where its two sensors sit in the bank's snapshot.
        resolved = [
            (
                {"xname": str(xname)},
                cluster.node(xname),
                sensors.position(SensorId(xname, SensorKind.TEMPERATURE_C)),
                sensors.position(SensorId(xname, SensorKind.POWER_W)),
            )
            for xname in covered
        ]
        super().__init__((_NODES, _read_nodes, sensors, resolved))
