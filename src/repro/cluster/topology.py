"""Perlmutter-like machine topology with Shasta xname addressing.

The geometry follows HPE Cray EX conventions scaled down to simulation
size: cabinets hold chassis, chassis hold compute blades (slots) and
Rosetta switch blades.  The paper states each Rosetta switch connects
eight compute nodes, so the default spec keeps that ratio (8 slots × 2
nodes per chassis = 16 nodes, served by 2 switches).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import NotFoundError, ValidationError
from repro.common.xname import XName

#: Cabinet coolant-leak sensing zones; each zone has redundant sensors
#: 'A' and 'B' (paper Fig. 2: "Sensor 'A' of the redundant leak sensors
#: in the 'Front' cabinet zone").
LEAK_ZONES = ("Front", "Rear")
LEAK_SENSORS = ("A", "B")
NODES_PER_SWITCH = 8


class SwitchState(enum.Enum):
    """Slingshot Fabric Manager switch states (paper §IV.B)."""

    ONLINE = "ONLINE"
    OFFLINE = "OFFLINE"
    UNKNOWN = "UNKNOWN"


class NodeState(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"


@dataclass(frozen=True)
class ClusterSpec:
    """Size parameters for a synthetic machine.

    The default is a small but structurally faithful machine: 4 cabinets x
    8 chassis x (8 slots x 2 nodes + 2 switches) = 512 nodes, 64 switches.
    """

    name: str = "perlmutter"
    cabinets: int = 4
    chassis_per_cabinet: int = 8
    slots_per_chassis: int = 8
    nodes_per_slot: int = 2
    first_cabinet: int = 1000

    def __post_init__(self) -> None:
        for fname in ("cabinets", "chassis_per_cabinet", "slots_per_chassis",
                      "nodes_per_slot"):
            if getattr(self, fname) < 1:
                raise ValidationError(f"{fname} must be >= 1")
        nodes_per_chassis = self.slots_per_chassis * self.nodes_per_slot
        if nodes_per_chassis % NODES_PER_SWITCH != 0:
            raise ValidationError(
                "nodes per chassis must be a multiple of 8 so every Rosetta "
                "switch serves exactly eight compute nodes"
            )

    @property
    def switches_per_chassis(self) -> int:
        return (self.slots_per_chassis * self.nodes_per_slot) // NODES_PER_SWITCH


@dataclass
class ComputeNode:
    xname: XName
    state: NodeState = NodeState.UP
    switch: XName | None = None  # the Rosetta switch serving this node


@dataclass
class Switch:
    xname: XName
    state: SwitchState = SwitchState.ONLINE
    nodes: list[XName] = field(default_factory=list)


@dataclass
class Chassis:
    xname: XName
    nodes: list[XName] = field(default_factory=list)
    switches: list[XName] = field(default_factory=list)


@dataclass
class Cabinet:
    xname: XName
    chassis: list[XName] = field(default_factory=list)
    #: leak state per (zone, sensor) — True means coolant detected.
    leak_state: dict[tuple[str, str], bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.leak_state:
            self.leak_state = {
                (zone, sensor): False for zone in LEAK_ZONES for sensor in LEAK_SENSORS
            }


class Cluster:
    """The assembled machine: component registry plus mutable state.

    The monitoring stack never reads this object directly — it observes the
    cluster only through Redfish events, fabric-manager queries, exporters
    and logs, exactly as the paper's pipeline observes Perlmutter.
    """

    def __init__(self, spec: ClusterSpec | None = None) -> None:
        self.spec = spec or ClusterSpec()
        self.cabinets: dict[XName, Cabinet] = {}
        self.chassis: dict[XName, Chassis] = {}
        self.nodes: dict[XName, ComputeNode] = {}
        self.switches: dict[XName, Switch] = {}
        self._build()

    def _build(self) -> None:
        s = self.spec
        for cab_i in range(s.cabinets):
            cab_x = XName(s.first_cabinet + cab_i)
            cabinet = Cabinet(cab_x)
            self.cabinets[cab_x] = cabinet
            for ch_i in range(s.chassis_per_cabinet):
                ch_x = XName(cab_x.cabinet, ch_i)
                chassis = Chassis(ch_x)
                self.chassis[ch_x] = chassis
                cabinet.chassis.append(ch_x)
                # Compute nodes: slot s, BMC 0, node n.
                chassis_nodes: list[XName] = []
                for slot in range(s.slots_per_chassis):
                    for n in range(s.nodes_per_slot):
                        node_x = XName(cab_x.cabinet, ch_i, slot=slot, bmc=0, node=n)
                        self.nodes[node_x] = ComputeNode(node_x)
                        chassis.nodes.append(node_x)
                        chassis_nodes.append(node_x)
                # Rosetta switches: r index, BMC 0; each serves 8 nodes.
                for sw_i in range(s.switches_per_chassis):
                    sw_x = XName(cab_x.cabinet, ch_i, switch=sw_i, bmc=0)
                    served = chassis_nodes[
                        sw_i * NODES_PER_SWITCH : (sw_i + 1) * NODES_PER_SWITCH
                    ]
                    sw = Switch(sw_x, nodes=list(served))
                    self.switches[sw_x] = sw
                    chassis.switches.append(sw_x)
                    for node_x in served:
                        self.nodes[node_x].switch = sw_x

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def cabinet(self, xname: XName | str) -> Cabinet:
        x = XName.parse(xname) if isinstance(xname, str) else xname
        try:
            return self.cabinets[x]
        except KeyError:
            raise NotFoundError(f"no such cabinet: {x}") from None

    def node(self, xname: XName | str) -> ComputeNode:
        x = XName.parse(xname) if isinstance(xname, str) else xname
        try:
            return self.nodes[x]
        except KeyError:
            raise NotFoundError(f"no such node: {x}") from None

    def switch(self, xname: XName | str) -> Switch:
        x = XName.parse(xname) if isinstance(xname, str) else xname
        try:
            return self.switches[x]
        except KeyError:
            raise NotFoundError(f"no such switch: {x}") from None

    def chassis_controller_xname(self, chassis_x: XName) -> XName:
        """The chassis BMC (``...b0``) that reports cabinet-zone events."""
        return XName(chassis_x.cabinet, chassis_x.chassis, bmc=0)

    # ------------------------------------------------------------------
    # State mutation (used by the fault injector)
    # ------------------------------------------------------------------
    def set_switch_state(self, xname: XName | str, state: SwitchState) -> SwitchState:
        """Set a switch's state, returning the previous state."""
        sw = self.switch(xname)
        prev = sw.state
        sw.state = state
        return prev

    def set_node_state(self, xname: XName | str, state: NodeState) -> NodeState:
        node = self.node(xname)
        prev = node.state
        node.state = state
        return prev

    def set_leak(
        self, cabinet_x: XName | str, zone: str, sensor: str, detected: bool
    ) -> None:
        if zone not in LEAK_ZONES:
            raise ValidationError(f"unknown leak zone {zone!r}; expected {LEAK_ZONES}")
        if sensor not in LEAK_SENSORS:
            raise ValidationError(
                f"unknown leak sensor {sensor!r}; expected {LEAK_SENSORS}"
            )
        self.cabinet(cabinet_x).leak_state[(zone, sensor)] = detected

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def offline_switches(self) -> list[Switch]:
        return [
            sw for x, sw in sorted(self.switches.items())
            if sw.state is not SwitchState.ONLINE
        ]

    def unreachable_nodes(self) -> list[XName]:
        """Nodes whose serving switch is not ONLINE (connectivity loss)."""
        out = []
        for x, node in sorted(self.nodes.items()):
            if node.switch is not None:
                if self.switches[node.switch].state is not SwitchState.ONLINE:
                    out.append(x)
        return out
