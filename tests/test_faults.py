"""Tests for fault injection and ground-truth bookkeeping."""

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock, minutes, seconds
from repro.common.xname import XName
from repro.cluster.faults import FaultInjector, FaultKind
from repro.cluster.sensors import SensorId, SensorKind, build_standard_bank
from repro.cluster.topology import Cluster, ClusterSpec, NodeState, SwitchState
from repro.core.framework import MonitoringFramework
from tests.test_wiring_manifest import FLAGS, _config


@pytest.fixture
def world():
    clock = SimClock(0)
    cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=2))
    sensors = build_standard_bank(cluster)
    return clock, cluster, FaultInjector(cluster, clock, sensors), sensors


class TestScheduling:
    def test_fault_applies_at_start_time(self, world):
        clock, cluster, inj, _ = world
        cab = next(iter(cluster.cabinets))
        fault = inj.schedule(FaultKind.CABINET_LEAK, cab, delay_ns=minutes(5))
        clock.advance(minutes(4))
        assert not fault.active
        assert not cluster.cabinets[cab].leak_state[("Front", "A")]
        clock.advance(minutes(1))
        assert fault.active
        assert cluster.cabinets[cab].leak_state[("Front", "A")]

    def test_fault_with_duration_self_heals(self, world):
        clock, cluster, inj, _ = world
        sw = next(iter(cluster.switches))
        inj.schedule(
            FaultKind.SWITCH_OFFLINE, sw, delay_ns=0, duration_ns=minutes(10)
        )
        clock.advance(minutes(1))
        assert cluster.switches[sw].state is SwitchState.OFFLINE
        clock.advance(minutes(10))
        assert cluster.switches[sw].state is SwitchState.ONLINE

    def test_negative_delay_rejected(self, world):
        _, cluster, inj, _ = world
        with pytest.raises(ValidationError):
            inj.schedule(FaultKind.NODE_DOWN, next(iter(cluster.nodes)), delay_ns=-1)

    def test_explicit_repair(self, world):
        clock, cluster, inj, _ = world
        node = next(iter(cluster.nodes))
        fault = inj.schedule(FaultKind.NODE_DOWN, node)
        clock.advance(minutes(1))
        assert cluster.nodes[node].state is NodeState.DOWN
        inj.repair(fault)
        assert cluster.nodes[node].state is NodeState.UP
        assert fault.repaired_ns == clock.now_ns


class TestKinds:
    def test_switch_unknown(self, world):
        clock, cluster, inj, _ = world
        sw = next(iter(cluster.switches))
        inj.schedule(FaultKind.SWITCH_UNKNOWN, sw)
        clock.advance(1)
        assert cluster.switches[sw].state is SwitchState.UNKNOWN

    def test_thermal_excursion_shifts_sensor(self, world):
        clock, cluster, inj, sensors = world
        node = next(iter(cluster.nodes))
        before = sensors.read(SensorId(node, SensorKind.TEMPERATURE_C))
        inj.schedule(FaultKind.THERMAL_EXCURSION, node, delta_c=30.0)
        clock.advance(1)
        after = sensors.read(SensorId(node, SensorKind.TEMPERATURE_C))
        assert after == pytest.approx(before + 30.0)

    def test_thermal_without_sensors_rejected(self):
        clock = SimClock(0)
        cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=1))
        inj = FaultInjector(cluster, clock, sensors=None)
        node = next(iter(cluster.nodes))
        with pytest.raises(ValidationError):
            inj.schedule(FaultKind.THERMAL_EXCURSION, node)
        clock.advance(1)
        assert inj.faults == []

    def test_leak_custom_zone_sensor(self, world):
        clock, cluster, inj, _ = world
        cab = next(iter(cluster.cabinets))
        inj.schedule(FaultKind.CABINET_LEAK, cab, zone="Rear", sensor="B")
        clock.advance(1)
        assert cluster.cabinets[cab].leak_state[("Rear", "B")]
        assert not cluster.cabinets[cab].leak_state[("Front", "A")]


class TestGroundTruth:
    def test_active_faults_listing(self, world):
        clock, cluster, inj, _ = world
        sw = next(iter(cluster.switches))
        inj.schedule(FaultKind.SWITCH_OFFLINE, sw, duration_ns=minutes(1))
        clock.advance(1)
        assert len(inj.active_faults()) == 1
        clock.advance(minutes(2))
        assert inj.active_faults() == []

    def test_faults_of_kind(self, world):
        clock, cluster, inj, _ = world
        sw = next(iter(cluster.switches))
        node = next(iter(cluster.nodes))
        inj.schedule(FaultKind.SWITCH_OFFLINE, sw)
        inj.schedule(FaultKind.NODE_DOWN, node)
        assert len(inj.faults_of_kind(FaultKind.SWITCH_OFFLINE)) == 1

    def test_is_degraded_uses_containment(self, world):
        clock, cluster, inj, _ = world
        cab = next(iter(cluster.cabinets))
        node = next(iter(cluster.nodes))
        inj.schedule(FaultKind.CABINET_LEAK, cab)
        clock.advance(1)
        assert inj.is_degraded(FaultKind.CABINET_LEAK, node)  # node inside cabinet
        assert not inj.is_degraded(FaultKind.CABINET_LEAK, XName.parse("x99"))


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class TestRegister:
    def test_bare_injector_knows_the_machine_kinds(self, world):
        _, _, inj, _ = world
        assert inj.kinds() == {
            FaultKind.CABINET_LEAK, FaultKind.SWITCH_OFFLINE, FaultKind.SWITCH_UNKNOWN,
            FaultKind.NODE_DOWN, FaultKind.THERMAL_EXCURSION,
        }

    def test_begin_returns_the_undo(self, world):
        clock, _, inj, _ = world
        calls = []

        def begin(fault):
            calls.append(("begin", fault.target))
            return lambda: calls.append(("end", fault.target))

        inj.register(FaultKind.GPFS_DEGRADED, begin)
        fault = inj.schedule(FaultKind.GPFS_DEGRADED, "scratch", duration_ns=minutes(1))
        clock.advance(1)
        assert fault.active and calls == [("begin", "scratch")]
        clock.advance(minutes(1))
        assert not fault.active and calls[-1] == ("end", "scratch")
        inj.repair(fault)  # already over: the undo runs once
        assert len(calls) == 2

    def test_none_means_instantaneous(self, world):
        clock, _, inj, _ = world
        inj.register(FaultKind.NOVEL_ERROR, lambda fault: None)
        fault = inj.schedule(FaultKind.NOVEL_ERROR, "app", duration_ns=minutes(1))
        clock.advance(1)
        assert not fault.active and inj.active_faults() == []
        clock.advance(minutes(2))

    def test_target_parses_and_may_refuse(self, world):
        _, _, inj, _ = world

        def only_scratch(target):
            if target != "scratch":
                raise ValidationError(f"no such filesystem: {target}")
            return target.upper()

        inj.register(FaultKind.GPFS_DEGRADED, lambda fault: None, target=only_scratch)
        assert inj.schedule(FaultKind.GPFS_DEGRADED, "scratch").target == "SCRATCH"
        with pytest.raises(ValidationError):
            inj.schedule(FaultKind.GPFS_DEGRADED, "home")
        assert len(inj.faults) == 1

    def test_second_registration_must_say_replace(self, world):
        clock, cluster, inj, _ = world
        with pytest.raises(ValidationError, match="already registered"):
            inj.register(FaultKind.NODE_DOWN, lambda fault: None)
        with pytest.raises(ValidationError, match="not registered"):
            inj.register(FaultKind.LOG_STORM, lambda fault: None, replace=True)
        inj.register(FaultKind.NODE_DOWN, lambda fault: None, replace=True, target=str)
        node = next(iter(cluster.nodes))
        inj.schedule(FaultKind.NODE_DOWN, str(node))
        clock.advance(1)
        assert cluster.nodes[node].state is NodeState.UP  # the replacement ran

    def test_a_begin_that_raises_leaves_no_active_fault(self, world):
        clock, _, inj, _ = world

        def begin(fault):
            raise ValidationError("no such thing")

        inj.register(FaultKind.GPFS_DEGRADED, begin)
        fault = inj.schedule(FaultKind.GPFS_DEGRADED, "x", duration_ns=minutes(1))
        with pytest.raises(ValidationError):
            clock.advance(1)
        assert not fault.active
        clock.advance(minutes(2))  # the end is a no-op, not a second raise


# ----------------------------------------------------------------------
# Regressions: the three bugs the chains had
# ----------------------------------------------------------------------
class TestScheduleRefuses:
    def test_kind_of_a_plane_that_is_off(self):
        """Was: accepted, then raised out of ``run_for`` at the start
        *and* at the end, with a phantom fault listed as active."""
        fw = MonitoringFramework(_config(()))
        with pytest.raises(ValidationError, match="no handler registered"):
            fw.faults.schedule(
                FaultKind.INGESTER_CRASH, "ingester-0",
                delay_ns=minutes(1), duration_ns=minutes(2),
            )
        assert fw.faults.faults == []
        fw.run_for(minutes(5))
        assert fw.faults.active_faults() == []

    def test_negative_duration(self, world):
        """Was: accepted, the end ran before the begin, the node stayed
        DOWN and the fault active forever."""
        clock, cluster, inj, _ = world
        node = next(iter(cluster.nodes))
        with pytest.raises(ValidationError, match="duration"):
            inj.schedule(
                FaultKind.NODE_DOWN, node, delay_ns=minutes(2), duration_ns=-seconds(30)
            )
        assert inj.faults == []
        clock.advance(minutes(10))
        assert cluster.nodes[node].state is NodeState.UP

    def test_zero_duration_stays_legal(self, world):
        clock, cluster, inj, _ = world
        node = next(iter(cluster.nodes))
        fault = inj.schedule(FaultKind.NODE_DOWN, node, duration_ns=0)
        clock.advance(1)
        assert not fault.active
        assert cluster.nodes[node].state is NodeState.UP


class TestGpfsDegraded:
    """Was: ``schedule(GPFS_DEGRADED, "scratch")`` raised ``invalid
    xname``, and with an xname the fault touched nothing."""

    def unhealthy(self, fw, name):
        return fw.gpfs.sample(name).unhealthy_nsds

    def test_degrades_the_named_filesystem_until_the_end(self):
        fw = MonitoringFramework(_config(()))
        fault = fw.faults.schedule(
            FaultKind.GPFS_DEGRADED, "scratch",
            delay_ns=minutes(1), duration_ns=minutes(3), fraction=0.5,
        )
        assert fault.target == "scratch"
        fw.run_for(minutes(2))
        assert fault.active
        assert self.unhealthy(fw, "scratch") == 4  # half of 8 NSD servers
        assert self.unhealthy(fw, "community") == 0
        assert fw.promql.query_instant(
            'gpfs_unhealthy_nsds{fs="scratch"} > 0', fw.clock.now_ns
        )
        fw.run_for(minutes(3))
        assert not fault.active
        assert self.unhealthy(fw, "scratch") == 0

    def test_default_fraction_is_set_degradeds(self):
        fw = MonitoringFramework(_config(()))
        fw.faults.schedule(FaultKind.GPFS_DEGRADED, "community")
        fw.run_for(seconds(1))
        assert self.unhealthy(fw, "community") == 2  # 0.25 of 8

    def test_unknown_filesystem_refused_at_schedule(self):
        fw = MonitoringFramework(_config(()))
        with pytest.raises(ValidationError, match="no such filesystem"):
            fw.faults.schedule(FaultKind.GPFS_DEGRADED, "x1000")
        assert fw.faults.faults == []


# ----------------------------------------------------------------------
# Every kind, on the framework that registers them all
# ----------------------------------------------------------------------
ALL_ON = dict(seed=7, ring_ingesters=6, ring_zones=3, tenant_shard_size=0)

#: What the base stack can apply with every plane off.
BASE_KINDS = {
    FaultKind.CABINET_LEAK, FaultKind.SWITCH_OFFLINE, FaultKind.SWITCH_UNKNOWN,
    FaultKind.NODE_DOWN, FaultKind.THERMAL_EXCURSION, FaultKind.GPFS_DEGRADED,
    FaultKind.LOG_STORM, FaultKind.NOVEL_ERROR,
}
MACHINE_KINDS = BASE_KINDS - {FaultKind.LOG_STORM, FaultKind.NOVEL_ERROR}
INSTANTANEOUS = {FaultKind.INGESTER_RESTART, FaultKind.NOVEL_ERROR}


def target_and_detail(fw, kind):
    node = sorted(fw.cluster.nodes)[3]
    return {
        FaultKind.CABINET_LEAK: (sorted(fw.cluster.cabinets)[0], {}),
        FaultKind.SWITCH_OFFLINE: (sorted(fw.cluster.switches)[1], {}),
        FaultKind.SWITCH_UNKNOWN: (sorted(fw.cluster.switches)[1], {}),
        FaultKind.NODE_DOWN: (node, {}),
        FaultKind.THERMAL_EXCURSION: (str(node), {"delta_c": 30.0}),
        FaultKind.GPFS_DEGRADED: ("scratch", {}),
        FaultKind.INGESTER_CRASH: ("ingester-1", {}),
        FaultKind.INGESTER_RESTART: ("ingester-1", {}),
        FaultKind.RECEIVER_OUTAGE: ("slack", {}),
        FaultKind.SLOW_CONSUMER: ("syslog", {"max_per_pump": 1}),
        FaultKind.NOISY_NEIGHBOR: ("noisy", {"lines_per_tick": 50, "queries_per_tick": 1}),
        FaultKind.OBJSTORE_OUTAGE: ("s3", {}),
        FaultKind.OBJSTORE_SLOW: ("s3", {"factor": 4.0}),
        FaultKind.QUERIER_CRASH: ("querier-0", {}),
        FaultKind.SLOW_QUERIER: ("querier-0", {}),
        FaultKind.HEARTBEAT_LOSS: ("ingester-2", {}),
        FaultKind.ZONE_OUTAGE: ("zone-1", {}),
        FaultKind.LOG_STORM: ("gpudriver", {"lines_per_tick": 20}),
        FaultKind.NOVEL_ERROR: ("gpudriver", {}),
        FaultKind.BURN_INJECTION: ("ingest-availability", {"error_rate": 0.5}),
    }[kind]


def machine_state(fw):
    return {
        "leaks": {x: dict(c.leak_state) for x, c in fw.cluster.cabinets.items()},
        "switches": {x: s.state for x, s in fw.cluster.switches.items()},
        "nodes": {x: n.state for x, n in fw.cluster.nodes.items()},
        "sensors": fw.sensors.read_all(),
        "gpfs": [(s.fs_name, s.healthy, s.unhealthy_nsds) for s in fw.gpfs.sample_all()],
    }


@pytest.fixture(scope="module")
def undisturbed():
    """The same run with no fault scheduled: what "back where it
    started" means for state that moves on its own (sensor walks)."""
    fw = MonitoringFramework(_config(FLAGS, **ALL_ON))
    fw.run_for(seconds(60))
    during = machine_state(fw)
    fw.run_for(minutes(2))
    return during, machine_state(fw)


def test_all_planes_on_registers_every_kind():
    fw = MonitoringFramework(_config(FLAGS, **ALL_ON))
    assert fw.faults.kinds() == set(FaultKind)


def test_only_self_healing_replaces_a_handler(monkeypatch):
    replaced = []
    register = FaultInjector.register

    def recording(self, kind, begin, **options):
        if options.get("replace"):
            replaced.append(kind)
        register(self, kind, begin, **options)

    monkeypatch.setattr(FaultInjector, "register", recording)
    MonitoringFramework(_config(FLAGS, **ALL_ON))
    assert replaced == [FaultKind.INGESTER_CRASH]


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda kind: kind.value)
def test_every_kind_round_trips(kind, undisturbed):
    fw = MonitoringFramework(_config(FLAGS, **ALL_ON))
    target, detail = target_and_detail(fw, kind)
    lasting = kind not in INSTANTANEOUS
    fault = fw.faults.schedule(
        kind, target, delay_ns=seconds(30),
        duration_ns=seconds(60) if lasting else None, **detail,
    )
    fw.run_for(seconds(60))
    assert fault.active == lasting
    assert fw.faults.active_faults() == ([fault] if lasting else [])
    if kind in MACHINE_KINDS:
        assert machine_state(fw) != undisturbed[0]
    fw.run_for(minutes(2))
    assert not fault.active
    assert fw.faults.active_faults() == []
    if kind in MACHINE_KINDS:
        assert machine_state(fw) == undisturbed[1]


def test_planes_off_refuses_every_plane_owned_kind():
    fw = MonitoringFramework(_config(()))
    assert fw.faults.kinds() == BASE_KINDS
    probe = MonitoringFramework(_config(FLAGS, **ALL_ON))
    for kind in sorted(set(FaultKind) - BASE_KINDS, key=lambda kind: kind.value):
        target, detail = target_and_detail(probe, kind)
        with pytest.raises(ValidationError, match="no handler registered"):
            fw.faults.schedule(kind, target, duration_ns=minutes(1), **detail)
    assert fw.faults.faults == []
    fw.run_for(minutes(2))
