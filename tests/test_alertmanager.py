"""Tests for Alertmanager: grouping, routing, silences, inhibition."""

import pytest

from repro.common.errors import NotFoundError, ValidationError
from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, hours, minutes, seconds
from repro.alerting.alertmanager import Alertmanager, InhibitRule, Route, Silence
from repro.alerting.events import AlertEvent, AlertState
from repro.alerting.receivers import MemoryReceiver


def event(name="TestAlert", state=AlertState.FIRING, ts=0, **labels):
    labels.setdefault("alertname", name)
    return AlertEvent(
        labels=LabelSet(labels),
        annotations={},
        state=state,
        value=1.0,
        started_at_ns=ts,
        fired_at_ns=ts,
    )


@pytest.fixture
def world():
    clock = SimClock(0)
    recv = MemoryReceiver("mem")
    am = Alertmanager(
        clock,
        Route(receiver="mem", group_by=("alertname",), group_wait="30s",
              group_interval="5m", repeat_interval="4h"),
    )
    am.register_receiver(recv)
    return clock, am, recv


class TestGrouping:
    def test_group_wait_batches_storm(self, world):
        clock, am, recv = world
        for i in range(10):
            am.receive(event(xname=f"x{i}"))
        clock.advance(seconds(29))
        assert recv.notifications == []
        clock.advance(seconds(1))
        assert len(recv.notifications) == 1
        assert len(recv.notifications[0].alerts) == 10
        assert am.grouping_factor() == 10.0

    def test_different_group_keys_notify_separately(self, world):
        clock, am, recv = world
        am.receive(event(name="A", xname="x1"))
        am.receive(event(name="B", xname="x2"))
        clock.advance(minutes(1))
        assert len(recv.notifications) == 2
        keys = {n.group_key.get("alertname") for n in recv.notifications}
        assert keys == {"A", "B"}

    def test_dedup_same_fingerprint(self, world):
        clock, am, recv = world
        am.receive(event(xname="x1"))
        am.receive(event(xname="x1"))  # identical series
        clock.advance(minutes(1))
        assert len(recv.notifications[0].alerts) == 1

    def test_group_interval_on_change(self, world):
        clock, am, recv = world
        am.receive(event(xname="x1"))
        clock.advance(minutes(1))
        assert len(recv.notifications) == 1
        am.receive(event(xname="x2"))  # change to the group
        clock.advance(minutes(5))
        assert len(recv.notifications) == 2
        assert len(recv.notifications[1].alerts) == 2

    def test_no_change_no_renotify_before_repeat(self, world):
        clock, am, recv = world
        am.receive(event(xname="x1"))
        clock.advance(hours(3))
        assert len(recv.notifications) == 1

    def test_repeat_interval_renotifies(self, world):
        clock, am, recv = world
        am.receive(event(xname="x1"))
        clock.advance(hours(5))
        assert len(recv.notifications) == 2

    def test_resolved_notification_and_group_cleanup(self, world):
        clock, am, recv = world
        am.receive(event(xname="x1"))
        clock.advance(minutes(1))
        am.receive(event(xname="x1", state=AlertState.RESOLVED))
        clock.advance(minutes(6))
        assert len(recv.notifications) == 2
        assert recv.notifications[1].status == "resolved"
        assert am.active_alerts() == []


class TestRouting:
    def test_child_route_selected_by_matcher(self):
        clock = SimClock(0)
        crit = MemoryReceiver("crit")
        norm = MemoryReceiver("norm")
        am = Alertmanager(
            clock,
            Route(
                receiver="norm",
                group_wait="0s",
                routes=[
                    Route(
                        receiver="crit",
                        matchers=(label_matcher("severity", "=", "critical"),),
                        group_wait="0s",
                    )
                ],
            ),
        )
        am.register_receiver(crit)
        am.register_receiver(norm)
        am.receive(event(severity="critical"))
        am.receive(event(name="Other", severity="warning"))
        clock.advance(seconds(1))
        assert crit.alert_count() == 1
        assert norm.alert_count() == 1

    def test_continue_fans_out_to_both(self):
        clock = SimClock(0)
        a, b = MemoryReceiver("a"), MemoryReceiver("b")
        am = Alertmanager(
            clock,
            Route(
                receiver="a",
                group_wait="0s",
                routes=[
                    Route(
                        receiver="b",
                        matchers=(label_matcher("severity", "=", "critical"),),
                        group_wait="0s",
                        continue_=True,
                    ),
                    Route(receiver="a", group_wait="0s"),
                ],
            ),
        )
        am.register_receiver(a)
        am.register_receiver(b)
        am.receive(event(severity="critical"))
        clock.advance(seconds(1))
        assert a.alert_count() == 1 and b.alert_count() == 1

    def test_unknown_receiver_raises_on_flush(self):
        clock = SimClock(0)
        am = Alertmanager(clock, Route(receiver="ghost", group_wait="0s"))
        am.receive(event())
        with pytest.raises(NotFoundError):
            clock.advance(seconds(1))

    def test_duplicate_receiver_rejected(self, world):
        _, am, _ = world
        with pytest.raises(ValidationError):
            am.register_receiver(MemoryReceiver("mem"))

    @pytest.mark.parametrize("attr", ["group_interval", "repeat_interval"])
    def test_zero_interval_rejected(self, attr):
        # A zero group_interval re-armed the group's flush forever at one
        # instant; a zero repeat_interval re-notified on every flush.
        with pytest.raises(ValidationError, match=attr):
            Route(
                receiver="mem", group_by=("alertname",), group_wait="0s",
                **{attr: "0s"},
            )


class TestSilences:
    def test_active_silence_drops_alert(self, world):
        clock, am, recv = world
        am.add_silence(
            Silence(
                matchers=(label_matcher("xname", "=", "x1"),),
                start_ns=0,
                end_ns=hours(1),
                comment="maintenance",
            )
        )
        am.receive(event(xname="x1"))
        am.receive(event(xname="x2"))
        clock.advance(minutes(1))
        assert am.events_silenced == 1
        assert len(recv.notifications[0].alerts) == 1

    def test_expired_silence_inert(self, world):
        clock, am, recv = world
        am.add_silence(
            Silence(
                matchers=(label_matcher("xname", "=", "x1"),),
                start_ns=0,
                end_ns=seconds(10),
            )
        )
        clock.advance(minutes(1))
        am.receive(event(xname="x1", ts=clock.now_ns))
        clock.advance(minutes(1))
        assert am.events_silenced == 0
        assert recv.alert_count() == 1

    def test_silence_validation(self):
        with pytest.raises(ValidationError):
            Silence(matchers=(), start_ns=0, end_ns=10)
        with pytest.raises(ValidationError):
            Silence(matchers=(label_matcher("a", "=", "b"),), start_ns=10, end_ns=10)


class TestInhibition:
    def test_source_suppresses_target_with_equal_labels(self, world):
        clock, am, recv = world
        am.add_inhibit_rule(
            InhibitRule(
                source_matchers=(label_matcher("alertname", "=", "SwitchOffline"),),
                target_matchers=(label_matcher("alertname", "=", "NodeDown"),),
                equal=("chassis",),
            )
        )
        am.receive(event(name="SwitchOffline", chassis="x1c0"))
        clock.advance(minutes(1))
        am.receive(event(name="NodeDown", chassis="x1c0"))
        am.receive(event(name="NodeDown", chassis="x2c0"))  # other chassis
        clock.advance(minutes(6))
        assert am.events_inhibited == 1
        names = [
            (a.labels["alertname"], a.labels.get("chassis"))
            for n in recv.notifications
            for a in n.alerts
        ]
        assert ("NodeDown", "x1c0") not in names
        assert ("NodeDown", "x2c0") in names

    def test_resolved_events_never_inhibited(self, world):
        clock, am, recv = world
        am.add_inhibit_rule(
            InhibitRule(
                source_matchers=(label_matcher("alertname", "=", "A"),),
                target_matchers=(label_matcher("alertname", "=", "B"),),
            )
        )
        am.receive(event(name="A"))
        clock.advance(minutes(1))
        am.receive(event(name="B", state=AlertState.RESOLVED))
        assert am.events_inhibited == 0
