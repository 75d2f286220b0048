"""Tests for the cluster topology model."""

import pytest

from repro.common.errors import NotFoundError, ValidationError
from repro.common.xname import XName
from repro.cluster.topology import (
    Cluster,
    ClusterSpec,
    LEAK_SENSORS,
    LEAK_ZONES,
    NodeState,
    NODES_PER_SWITCH,
    SwitchState,
)


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec(cabinets=2, chassis_per_cabinet=2))


class TestSpec:
    def test_defaults_keep_eight_nodes_per_switch(self):
        spec = ClusterSpec()
        assert (
            spec.slots_per_chassis * spec.nodes_per_slot
            == spec.switches_per_chassis * NODES_PER_SWITCH
        )

    def test_totals(self):
        cluster = Cluster(ClusterSpec(cabinets=2, chassis_per_cabinet=2))
        assert len(cluster.nodes) == 2 * 2 * 8 * 2
        assert len(cluster.switches) == 2 * 2 * 2

    def test_rejects_non_multiple_of_eight(self):
        with pytest.raises(ValidationError):
            ClusterSpec(slots_per_chassis=3, nodes_per_slot=1)

    def test_rejects_zero_cabinets(self):
        with pytest.raises(ValidationError):
            ClusterSpec(cabinets=0)


class TestBuild:
    def test_component_counts(self, cluster):
        spec = cluster.spec
        chassis = spec.cabinets * spec.chassis_per_cabinet
        assert len(cluster.nodes) == chassis * spec.slots_per_chassis * spec.nodes_per_slot
        assert len(cluster.switches) == chassis * spec.switches_per_chassis
        assert len(cluster.cabinets) == spec.cabinets
        assert len(cluster.chassis) == spec.cabinets * spec.chassis_per_cabinet

    def test_every_switch_serves_eight_nodes(self, cluster):
        for sw in cluster.switches.values():
            assert len(sw.nodes) == NODES_PER_SWITCH

    def test_every_node_has_a_switch(self, cluster):
        for node in cluster.nodes.values():
            assert node.switch is not None
            assert node.xname in cluster.switches[node.switch].nodes

    def test_xnames_follow_cabinet_numbering(self):
        c = Cluster(ClusterSpec(cabinets=2, first_cabinet=1200))
        assert sorted(str(x) for x in c.cabinets) == ["x1200", "x1201"]

    def test_leak_state_initialised(self, cluster):
        cab = next(iter(cluster.cabinets.values()))
        assert set(cab.leak_state) == {
            (z, s) for z in LEAK_ZONES for s in LEAK_SENSORS
        }
        assert not any(cab.leak_state.values())

    def test_chassis_controller_xname(self, cluster):
        ch = next(iter(cluster.chassis))
        controller = cluster.chassis_controller_xname(ch)
        assert controller.bmc == 0 and controller.chassis == ch.chassis


class TestLookupsAndState:
    def test_lookup_by_string(self, cluster):
        node_x = next(iter(cluster.nodes))
        assert cluster.node(str(node_x)).xname == node_x

    def test_unknown_lookups_raise(self, cluster):
        with pytest.raises(NotFoundError):
            cluster.node("x999c0s0b0n0")
        with pytest.raises(NotFoundError):
            cluster.switch("x999c0r0b0")
        with pytest.raises(NotFoundError):
            cluster.cabinet("x999")

    def test_switch_state_transitions(self, cluster):
        sw = next(iter(cluster.switches))
        prev = cluster.set_switch_state(sw, SwitchState.OFFLINE)
        assert prev is SwitchState.ONLINE
        assert cluster.switches[sw].state is SwitchState.OFFLINE
        assert cluster.offline_switches()[0].xname == sw

    def test_unreachable_nodes_follow_switch(self, cluster):
        sw_x = next(iter(cluster.switches))
        cluster.set_switch_state(sw_x, SwitchState.UNKNOWN)
        unreachable = cluster.unreachable_nodes()
        assert len(unreachable) == NODES_PER_SWITCH
        assert set(unreachable) == set(cluster.switches[sw_x].nodes)

    def test_set_leak_validates_zone_and_sensor(self, cluster):
        cab = next(iter(cluster.cabinets))
        with pytest.raises(ValidationError):
            cluster.set_leak(cab, "Side", "A", True)
        with pytest.raises(ValidationError):
            cluster.set_leak(cab, "Front", "C", True)

    def test_set_leak(self, cluster):
        cab = next(iter(cluster.cabinets))
        cluster.set_leak(cab, "Front", "A", True)
        assert cluster.cabinets[XName.parse(str(cab))].leak_state[("Front", "A")]

    def test_node_state_transitions(self, cluster):
        node = next(iter(cluster.nodes))
        prev = cluster.set_node_state(node, NodeState.DOWN)
        assert prev is NodeState.UP
        assert cluster.nodes[node].state is NodeState.DOWN
