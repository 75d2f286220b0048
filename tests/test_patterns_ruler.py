"""The pattern ruler: EWMA baselines, burst detection, novelty alerts."""

import pytest

from repro.alerting.events import AlertState
from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, minutes, seconds
from repro.loki.model import LogEntry
from repro.patterns.ingester import PatternIngester
from repro.patterns.ruler import BURST_EXPR, NOVEL_EXPR, PatternRuler
from repro.patterns.store import PatternStore
from tests.tracing import off_tracer

LABELS = LabelSet({"app": "api"})


class Harness:
    def __init__(self, **ruler_kwargs):
        self.clock = SimClock()
        self.store = PatternStore(tracer=off_tracer())
        self.ingester = PatternIngester(self.clock, self.store, tracer=off_tracer())
        self.events = []
        self.ruler = PatternRuler(
            self.clock,
            self.events.append,
            self.ingester,
            self.store,
            tracer=off_tracer(),
            **ruler_kwargs,
        )

    def push(self, line, n=1):
        now = self.clock.now_ns
        entries = [LogEntry(now + i, f"{line} {i}") for i in range(n)]
        self.ingester.observe(LABELS, entries)

    def tick(self, interval_ns=seconds(10)):
        self.clock.advance(interval_ns)
        return self.ruler.evaluate_all()

    def fired(self, name):
        return [
            e for e in self.events
            if e.labels.get("alertname") == name
            and e.state is AlertState.FIRING
        ]

    def resolved(self, name):
        return [
            e for e in self.events
            if e.labels.get("alertname") == name
            and e.state is AlertState.RESOLVED
        ]


def burst_rule():
    return RuleSpec(
        name="PatternBurst",
        expr=BURST_EXPR,
        for_="0s",
        labels={"severity": "warning", "category": "patterns"},
    )


def novel_rule():
    return RuleSpec(
        name="NovelErrorPattern",
        expr=NOVEL_EXPR,
        for_="0s",
        labels={"severity": "critical", "category": "patterns"},
    )


class TestValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ValidationError):
            Harness(novel_bootstrap_ns=-1)

    def test_only_pattern_exprs_accepted(self):
        h = Harness()
        with pytest.raises(ValidationError):
            h.ruler.add_rule(RuleSpec(name="X", expr="up > 0"))
        h.ruler.add_rule(burst_rule())  # accepted


class TestBurstDetection:
    def test_absolute_floor_catches_brand_new_storm(self):
        """A storm template with no baseline still fires: the absolute
        rate floor needs no warmup."""
        h = Harness()
        h.ruler.add_rule(burst_rule())
        h.push("disk quiet line")
        h.tick()  # anchor
        h.push("I/O error on dev sda, sector", n=1000)  # 100/s over 10s
        h.tick()
        assert len(h.fired("PatternBurst")) == 1
        event = h.fired("PatternBurst")[0]
        assert event.labels.get("pattern_id")
        assert event.labels.get("severity") == "warning"

    def test_relative_burst_after_warmup(self):
        h = Harness()
        h.ruler.add_rule(burst_rule())
        h.push("api request served in ms", n=10)
        h.tick()  # anchor
        for _ in range(4):  # warm the EWMA at 1 line/s
            h.push("api request served in ms", n=10)
            h.tick()
        assert h.fired("PatternBurst") == []
        baseline = h.ruler.baseline_rate("ops", self_pid(h))
        assert baseline == pytest.approx(1.0)
        # 20 lines/s: below the absolute floor, 20x the baseline.
        h.push("api request served in ms", n=200)
        h.tick()
        assert len(h.fired("PatternBurst")) == 1

    def test_ewma_frozen_during_burst(self):
        h = Harness()
        h.ruler.add_rule(burst_rule())
        h.push("api request served in ms", n=10)
        h.tick()
        for _ in range(4):
            h.push("api request served in ms", n=10)
            h.tick()
        before = h.ruler.baseline_rate("ops", self_pid(h))
        for _ in range(3):  # sustained storm
            h.push("api request served in ms", n=1000)
            h.tick()
        assert h.ruler.baseline_rate("ops", self_pid(h)) == before

    def test_burst_self_resolves_when_storm_ends(self):
        h = Harness()
        h.ruler.add_rule(burst_rule())
        h.push("noise line here")
        h.tick()
        h.push("I/O error on dev sda, sector", n=1000)
        h.tick()
        assert len(h.fired("PatternBurst")) == 1
        h.tick()  # quiet interval: rate 0
        assert len(h.resolved("PatternBurst")) == 1
        assert h.ruler.active_bursts == 0

    def test_sustained_storm_is_one_firing_edge(self):
        h = Harness()
        h.ruler.add_rule(burst_rule())
        h.push("warm up line")
        h.tick()
        for _ in range(5):
            h.push("I/O error on dev sda, sector", n=1000)
            h.tick()
        assert len(h.fired("PatternBurst")) == 1  # one rising edge
        assert h.ruler.bursts_detected == 1


class TestNoveltyDetection:
    def test_novel_error_template_fires(self):
        h = Harness()
        h.ruler.add_rule(novel_rule())
        h.push("app FATAL assertion failed in module core, unit")
        events = h.tick()
        fired = h.fired("NovelErrorPattern")
        assert len(fired) == 1
        assert fired[0].labels.get("severity") == "critical"
        assert fired[0].labels.get("pattern_id")
        assert len(h.ruler.novel_detections) == 1
        # Detection latency is bounded by the evaluation interval.
        assert h.ruler.novel_detections[0].latency_ns <= seconds(10)

    def test_non_error_template_is_not_novel_alert(self):
        h = Harness()
        h.ruler.add_rule(novel_rule())
        h.push("routine heartbeat from node")
        h.tick()
        assert h.fired("NovelErrorPattern") == []

    def test_novel_alert_self_resolves_after_window(self):
        h = Harness()
        h.ruler.add_rule(novel_rule())
        h.push("app FATAL assertion failed in module core, unit")
        h.tick()
        assert len(h.fired("NovelErrorPattern")) == 1
        # Advance past the active window: the series disappears.
        for _ in range(70):
            h.tick()
        assert len(h.resolved("NovelErrorPattern")) == 1

    def test_bootstrap_window_suppresses_cold_start_novelty(self):
        """With an empty corpus every early template is never-before-
        seen; the bootstrap window keeps startup from paging."""
        h = Harness(novel_bootstrap_ns=minutes(1))
        h.ruler.add_rule(novel_rule())
        h.push("app FATAL assertion failed in module core, unit")
        h.tick()
        assert h.fired("NovelErrorPattern") == []
        assert h.ruler.novel_detected == 0
        # Past the bootstrap window a genuinely new error template fires.
        for _ in range(6):
            h.tick()
        h.push("kernel panic: unable to mount root fs on node")
        h.tick()
        assert len(h.fired("NovelErrorPattern")) == 1
        assert h.ruler.novel_detected == 1

    def test_second_sighting_is_not_novel(self):
        h = Harness()
        h.ruler.add_rule(novel_rule())
        h.push("app FATAL assertion failed in module core, unit")
        h.tick()
        h.push("app FATAL assertion failed in module core, unit")
        h.tick()
        assert h.ruler.novel_detected == 1


def self_pid(h):
    """The single pattern_id the harness has mined so far."""
    counts = h.store.counts_by_pattern()
    assert len(counts) == 1
    return next(iter(counts))[1]
