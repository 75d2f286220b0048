"""Tests for the HMS collector and the Telemetry API middleman."""

import json

import pytest

from repro.bus.broker import Broker
from repro.common.errors import AuthError, StateError
from repro.common.simclock import SimClock, minutes, seconds
from repro.cluster.faults import FaultInjector, FaultKind
from repro.cluster.sensors import build_standard_bank
from repro.cluster.topology import Cluster, ClusterSpec
from repro.shasta.hms import (
    HmsCollector,
    TOPIC_REDFISH_EVENTS,
    TOPIC_SENSOR_TELEMETRY,
)
from repro.shasta.redfish import RedfishEventSource
from repro.shasta.telemetry_api import TelemetryAPI
from tests.tracing import off_tracer


@pytest.fixture
def world():
    clock = SimClock(0)
    cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=2))
    sensors = build_standard_bank(cluster)
    injector = FaultInjector(cluster, clock, sensors)
    broker = Broker(clock)
    source = RedfishEventSource(cluster, clock)
    hms = HmsCollector(broker, clock, source, sensors, tracer=off_tracer())
    return clock, cluster, injector, broker, hms


class TestHms:
    def test_topics_created(self, world):
        broker = world[3]
        assert TOPIC_REDFISH_EVENTS in broker.topics()
        assert TOPIC_SENSOR_TELEMETRY in broker.topics()

    def test_collect_events_publishes_figure2_payload(self, world):
        clock, cluster, injector, broker, hms = world
        cab = next(iter(cluster.cabinets))
        injector.schedule(FaultKind.CABINET_LEAK, cab)
        clock.advance(seconds(1))
        assert hms.collect_events() == 1
        records = broker.poll("t", TOPIC_REDFISH_EVENTS, 10)
        payload = json.loads(records[0].value)
        assert "metrics" in payload and "messages" in payload["metrics"]
        assert payload["metrics"]["messages"][0]["Events"][0]["MessageId"].endswith(
            "CabinetLeakDetected"
        )

    def test_collect_sensors_publishes_every_sensor(self, world):
        clock, cluster, _, broker, hms = world
        n = hms.collect_sensors()
        assert n == len(build_standard_bank(cluster).sensors())
        records = broker.poll("t", TOPIC_SENSOR_TELEMETRY, 10_000)
        assert len(records) == n
        sample = json.loads(records[0].value)
        assert {"Context", "PhysicalContext", "Timestamp", "Value"} <= set(sample)

    def test_periodic_collection(self, world):
        clock, cluster, injector, broker, hms = world
        clock.every(seconds(10), hms.collect_events)
        clock.every(seconds(30), hms.collect_sensors)
        cab = next(iter(cluster.cabinets))
        injector.schedule(FaultKind.CABINET_LEAK, cab, delay_ns=seconds(15))
        clock.advance(minutes(1))
        assert hms.events_collected == 1
        assert hms.samples_collected > 0

    def test_no_events_no_publish(self, world):
        _, _, _, broker, hms = world
        assert hms.collect_events() == 0
        assert broker.poll("t", TOPIC_REDFISH_EVENTS, 10) == []


class TestTelemetryAPI:
    @pytest.fixture
    def api(self, world):
        broker = world[3]
        api = TelemetryAPI(broker, servers=3)
        api.register_client("nersc", "secret")
        return api

    def test_auth_required(self, api):
        with pytest.raises(AuthError):
            api.subscribe("wrong-token", TOPIC_REDFISH_EVENTS)

    def test_duplicate_token_rejected(self, api):
        with pytest.raises(StateError):
            api.register_client("other", "secret")

    def test_subscribe_and_fetch(self, world, api):
        clock, cluster, injector, broker, hms = world
        cab = next(iter(cluster.cabinets))
        injector.schedule(FaultKind.CABINET_LEAK, cab)
        clock.advance(seconds(1))
        hms.collect_events()
        sub = api.subscribe("secret", TOPIC_REDFISH_EVENTS)
        records = api.fetch(sub)
        assert len(records) == 1
        assert sub.records_delivered == 1
        assert api.fetch(sub) == []  # consumed

    def test_closed_subscription_rejected(self, api):
        sub = api.subscribe("secret", TOPIC_REDFISH_EVENTS)
        api.close(sub)
        with pytest.raises(StateError):
            api.fetch(sub)

    def test_independent_subscriptions_replay_independently(self, world, api):
        clock, cluster, injector, broker, hms = world
        cab = next(iter(cluster.cabinets))
        injector.schedule(FaultKind.CABINET_LEAK, cab)
        clock.advance(seconds(1))
        hms.collect_events()
        api.register_client("other", "secret2")
        sub1 = api.subscribe("secret", TOPIC_REDFISH_EVENTS)
        sub2 = api.subscribe("secret2", TOPIC_REDFISH_EVENTS)
        assert len(api.fetch(sub1)) == 1
        assert len(api.fetch(sub2)) == 1

    def test_load_balancing_round_robin(self, api):
        sub = api.subscribe("secret", TOPIC_REDFISH_EVENTS)
        for _ in range(9):
            api.fetch(sub)
        assert api.server_request_counts() == [3, 3, 3]

    def test_active_subscription_listing(self, api):
        sub = api.subscribe("secret", TOPIC_REDFISH_EVENTS)
        assert api.active_subscriptions() == [sub]
        api.close(sub)
        assert api.active_subscriptions() == []
