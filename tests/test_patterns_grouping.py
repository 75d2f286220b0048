"""Storm suppression: Alertmanager grouping on ``pattern_id``.

The tentpole claim: a log storm of thousands of identical lines — which
per-line alerting would turn into thousands of notifications — collapses
into ONE Alertmanager group and one notification, because every
PatternBurst event carries the same content-derived ``pattern_id``.
"""

from repro.alerting.alertmanager import Alertmanager, Route
from repro.alerting.events import AlertState
from repro.alerting.receivers import MemoryReceiver
from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, minutes, seconds
from repro.loki.model import LogEntry
from repro.patterns.ingester import PatternIngester
from repro.patterns.ruler import PatternRuler
from repro.patterns.store import PatternStore
from tests.test_patterns_ruler import burst_rule
from tests.tracing import off_tracer

LABELS_A = LabelSet({"app": "api", "host": "nid001"})
LABELS_B = LabelSet({"app": "api", "host": "nid002"})


def pattern_route():
    return Route(
        receiver="mem",
        group_by=("alertname", "pattern_id"),
        group_wait="30s",
        group_interval="5m",
        repeat_interval="4h",
        matchers=(label_matcher("category", "=", "patterns"),),
    )


def make_world():
    clock = SimClock(0)
    recv = MemoryReceiver("mem")
    am = Alertmanager(
        clock,
        Route(
            receiver="mem",
            group_by=("alertname",),
            routes=[pattern_route()],
        ),
    )
    am.register_receiver(recv)
    store = PatternStore(tracer=off_tracer())
    ingester = PatternIngester(clock, store, tracer=off_tracer())
    ruler = PatternRuler(clock, am.receive, ingester, store, tracer=off_tracer())
    ruler.add_rule(burst_rule())
    return clock, am, recv, ingester, ruler


class TestStormCollapse:
    def test_thousand_line_storm_is_one_notification(self):
        clock, am, recv, ingester, ruler = make_world()
        # Anchor evaluation, then a 1,000-line storm split across two
        # streams — identical template, different hosts and parameters.
        ruler.evaluate_all()
        clock.advance(seconds(10))
        now = clock.now_ns
        ingester.observe(
            LABELS_A,
            [LogEntry(now + i, f"I/O error on dev sda, sector {i}")
             for i in range(500)],
        )
        ingester.observe(
            LABELS_B,
            [LogEntry(now + i, f"I/O error on dev sda, sector {7000 + i}")
             for i in range(500)],
        )
        ruler.evaluate_all()
        clock.advance(minutes(1))  # past group_wait
        assert len(recv.notifications) == 1
        notification = recv.notifications[0]
        # Both streams' bursts share the content-derived pattern_id, so
        # the group key has exactly one.
        assert notification.group_key.get("pattern_id")
        assert len(notification.alerts) >= 1
        assert am.grouping_factor() >= 1.0

    def test_storm_self_resolves_when_it_ends(self):
        clock, am, recv, ingester, ruler = make_world()
        ruler.evaluate_all()
        clock.advance(seconds(10))
        now = clock.now_ns
        ingester.observe(
            LABELS_A,
            [LogEntry(now + i, f"I/O error on dev sda, sector {i}")
             for i in range(1000)],
        )
        ruler.evaluate_all()
        clock.advance(minutes(1))
        assert len(recv.notifications) == 1
        # Storm over: the next evaluation sees rate 0 and resolves.
        ruler.evaluate_all()
        clock.advance(minutes(6))  # next group_interval flush
        resolved = [
            a
            for n in recv.notifications[1:]
            for a in n.alerts
            if a.state is AlertState.RESOLVED
        ]
        assert resolved
        assert ruler.active_bursts == 0

    def test_distinct_storms_group_separately(self):
        clock, am, recv, ingester, ruler = make_world()
        ruler.evaluate_all()
        clock.advance(seconds(10))
        now = clock.now_ns
        ingester.observe(
            LABELS_A,
            [LogEntry(now + i, f"I/O error on dev sda, sector {i}")
             for i in range(600)],
        )
        ingester.observe(
            LABELS_B,
            [LogEntry(now + i, f"fan {i} speed critical on chassis {i}")
             for i in range(600)],
        )
        ruler.evaluate_all()
        clock.advance(minutes(1))
        assert len(recv.notifications) == 2
        pids = {n.group_key.get("pattern_id") for n in recv.notifications}
        assert len(pids) == 2
