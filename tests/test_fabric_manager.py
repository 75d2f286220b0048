"""Tests for the Slingshot Fabric Manager and the NERSC monitor (§IV.B)."""

import pytest

from repro.common.simclock import SimClock, seconds
from repro.cluster.topology import Cluster, ClusterSpec, SwitchState
from repro.shasta.fabric_manager import (
    FabricManager,
    FabricManagerMonitor,
    SwitchEvent,
)


@pytest.fixture
def world():
    clock = SimClock(0)
    cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=2))
    fm = FabricManager(cluster)
    events: list[SwitchEvent] = []
    monitor = FabricManagerMonitor(fm, clock, events.append)
    return clock, cluster, fm, monitor, events


class TestFabricManager:
    def test_reports_all_switches_online(self, world):
        _, cluster, fm, _, _ = world
        states = fm.get_switch_states()
        assert len(states) == len(cluster.switches)
        assert set(states.values()) == {"ONLINE"}

    def test_single_switch_query(self, world):
        _, cluster, fm, _, _ = world
        sw = next(iter(cluster.switches))
        assert fm.get_switch_state(sw) == "ONLINE"

    def test_query_counter(self, world):
        _, _, fm, _, _ = world
        before = fm.queries_served
        fm.get_switch_states()
        assert fm.queries_served == before + 1


class TestMonitor:
    def test_quiet_when_nothing_changes(self, world):
        _, _, _, monitor, events = world
        assert monitor.poll_once() == []
        assert events == []

    def test_paper_event_line_format(self, world):
        clock, cluster, _, monitor, events = world
        sw = sorted(cluster.switches)[0]
        cluster.set_switch_state(sw, SwitchState.UNKNOWN)
        monitor.poll_once()
        assert len(events) == 1
        line = events[0].to_line()
        assert line == (
            f"[critical] problem:fm_switch_offline, xname:{sw}, state:UNKNOWN"
        )

    def test_offline_is_critical(self, world):
        _, cluster, _, monitor, events = world
        sw = sorted(cluster.switches)[0]
        cluster.set_switch_state(sw, SwitchState.OFFLINE)
        monitor.poll_once()
        assert events[0].severity == "critical"
        assert events[0].problem == "fm_switch_offline"

    def test_recovery_emits_online_info(self, world):
        _, cluster, _, monitor, events = world
        sw = sorted(cluster.switches)[0]
        cluster.set_switch_state(sw, SwitchState.OFFLINE)
        monitor.poll_once()
        cluster.set_switch_state(sw, SwitchState.ONLINE)
        monitor.poll_once()
        assert events[-1].problem == "fm_switch_online"
        assert events[-1].severity == "info"

    def test_edge_triggered(self, world):
        _, cluster, _, monitor, events = world
        sw = sorted(cluster.switches)[0]
        cluster.set_switch_state(sw, SwitchState.OFFLINE)
        monitor.poll_once()
        monitor.poll_once()
        assert len(events) == 1

    def test_multiple_changes_one_poll(self, world):
        _, cluster, _, monitor, events = world
        switches = sorted(cluster.switches)[:3]
        for sw in switches:
            cluster.set_switch_state(sw, SwitchState.OFFLINE)
        monitor.poll_once()
        assert len(events) == 3
        assert sorted(e.xname for e in events) == [str(s) for s in switches]

    def test_periodic_polling(self, world):
        clock, cluster, _, monitor, events = world
        clock.every(seconds(30), monitor.poll_once)
        sw = sorted(cluster.switches)[0]
        cluster.set_switch_state(sw, SwitchState.UNKNOWN)
        clock.advance(seconds(29))
        assert events == []
        clock.advance(seconds(1))
        assert len(events) == 1
        assert events[0].timestamp_ns == seconds(30)
