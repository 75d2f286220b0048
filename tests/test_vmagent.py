"""Tests for vmagent scraping."""

import math

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.common.labels import label_matcher, METRIC_NAME_LABEL
from repro.common.simclock import SimClock, minutes, seconds
from repro.exporters.exporter import Exporter
from repro.exporters.textformat import parse_exposition
from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb.vmagent import ScrapeTarget, VMAgent


class FakeExporter:
    def __init__(self, readings=(("m", 1.0, None),)):
        self.readings = list(readings)
        self.calls = 0

    def scrape(self):
        self.calls += 1
        return self.readings


class BrokenExporter:
    def scrape(self):
        raise RuntimeError("connection refused")


@pytest.fixture
def world():
    clock = SimClock(0)
    store = TimeSeriesStore()
    agent = VMAgent(store, clock)
    return clock, store, agent


class TestScraping:
    def test_samples_get_job_instance_labels(self, world):
        _, store, agent = world
        agent.add_target(ScrapeTarget("myjob", "host:9100", FakeExporter()))
        agent.scrape_all()
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10)
        labels = results[0][0]
        assert labels["job"] == "myjob" and labels["instance"] == "host:9100"

    def test_exporter_labels_not_overridden(self, world):
        _, store, agent = world
        agent.add_target(
            ScrapeTarget("j", "i", FakeExporter([("m", 1.0, {"job": "inner"})]))
        )
        agent.scrape_all()
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10)
        assert results[0][0]["job"] == "inner"

    def test_up_metric_recorded(self, world):
        _, store, agent = world
        agent.add_target(ScrapeTarget("j", "i", FakeExporter()))
        agent.scrape_all()
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "up")], 0, 10)
        assert results[0][2].tolist() == [1.0]

    def test_failed_scrape_records_up_zero(self, world):
        _, store, agent = world
        agent.add_target(ScrapeTarget("j", "i", BrokenExporter()))
        agent.scrape_all()
        assert agent.scrape_errors == 1
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "up")], 0, 10)
        assert results[0][2].tolist() == [0.0]

    def test_duplicate_target_rejected(self, world):
        _, _, agent = world
        agent.add_target(ScrapeTarget("j", "i", FakeExporter()))
        with pytest.raises(ValidationError):
            agent.add_target(ScrapeTarget("j", "i", FakeExporter()))

    def test_target_requires_identity(self):
        with pytest.raises(ValidationError):
            ScrapeTarget("", "i", FakeExporter())

    def test_periodic_scraping(self, world):
        clock, store, agent = world
        exporter = FakeExporter()
        agent.add_target(ScrapeTarget("j", "i", exporter))
        clock.every(seconds(15), agent.scrape_all)
        clock.advance(minutes(1))
        assert exporter.calls == 4
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, minutes(2))
        assert len(results[0][1]) == 4

    def test_counters(self, world):
        _, _, agent = world
        agent.add_target(
            ScrapeTarget("j", "i", FakeExporter([("a", 1.0, None), ("b", 2.0, None)]))
        )
        pushed = agent.scrape_all()
        assert pushed == 2
        assert agent.samples_pushed == 2
        assert agent.scrapes_done == 1


# ----------------------------------------------------------------------
# The typed batch stores what its text would
# ----------------------------------------------------------------------
def scrape_through_text(store, target, batch, now):
    """What a scrape stores by way of the exposition text: the batch
    rendered, parsed back with ``parse_exposition`` and every point
    stored with the target's ``job``/``instance`` added.  Returns samples
    pushed, or None for a failed scrape."""
    up = {"job": target.job, "instance": target.instance}
    try:
        points = parse_exposition(batch().text())
    except Exception:
        store.ingest("up", up, 0.0, now)
        return None
    pushed = 0
    for point in points:
        labels = dict(point.labels)
        labels.setdefault("job", target.job)
        labels.setdefault("instance", target.instance)
        pushed += store.ingest(point.name, labels, point.value, now)
    store.ingest("up", up, 1.0, now)
    return pushed


def contents(store):
    everything = [label_matcher(METRIC_NAME_LABEL, "=~", ".+")]
    return [
        (labels, ts.tolist(), [repr(v) for v in vals.tolist()])
        for labels, ts, vals in store.select(everything, 0, 10**12)
    ]


class Replay:
    """Serves the given zero-argument scrapes, one per scrape; ``served``
    is the last one it called."""

    def __init__(self, *batches):
        self.batches = list(batches)
        self.served = None

    def scrape(self):
        self.served = self.batches.pop(0)
        return self.served()


_TABLE = (
    ("m", "gauge", "A gauge."),
    ("n_total", "counter", "A counter."),
    ("empty", "gauge", ""),
)


def batch(*readings):
    """A zero-argument scrape of an exporter over ``_TABLE`` reading
    ``readings``: raises what ``Exporter.scrape`` raises."""
    return Exporter((_TABLE, lambda: iter(readings))).scrape


def run(*batches, job="j", instance="i"):
    """Scrape ``batches`` in turn through vmagent and through the text,
    into two stores, and require the same contents and counters after
    every scrape."""
    clock = SimClock(0)
    store, reference = TimeSeriesStore(), TimeSeriesStore()
    agent = VMAgent(store, clock)
    exporter = Replay(*batches)
    target = ScrapeTarget(job, instance, exporter)
    agent.add_target(target)
    pushed = scrapes = errors = 0
    for scrape in batches:
        clock.advance(seconds(15))
        got = agent.scrape_all()
        want = scrape_through_text(reference, target, scrape, clock.now_ns)
        assert got == (want or 0)
        pushed += want or 0
        scrapes += want is not None
        errors += want is None
        assert (agent.samples_pushed, agent.scrapes_done, agent.scrape_errors) == (
            pushed, scrapes, errors
        )
        assert contents(store) == contents(reference)
    return agent, store


class TestTypedBatchEqualsItsText:
    """vmagent stores a scrape's typed batch; nothing may differ from
    storing what its exposition text parses back to, scrape by scrape."""

    def test_repeated_scrapes(self):
        readings = batch(
            ("m", 1.0, {"x": "1"}), ("m", 2.5, {"x": "2"}), ("n_total", 3, None),
            ("m", 4.0, {}),
        )
        _, store = run(readings, readings, readings)
        assert store.series_count() == 5  # m×3, n_total, up

    def test_values_of_every_kind(self):
        values = [
            math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 0.1, 2**53 + 1,
            True, False, np.float64(2.675), np.float32(0.1), np.int64(-7), np.bool_(True),
            np.uint8(255),
        ]
        readings = batch(*(("m", v, {"i": str(i)}) for i, v in enumerate(values)))
        run(readings, readings)

    def test_escaped_quotes_backslashes_newlines_and_braces_in_values(self):
        readings = batch(
            ("m", 1, {"path": "C:\\dir\\f", "msg": 'say "hi"', "nl": "a\nb"}),
            ("m", 2, {"expr": 'rate(x{a="b"}[5m]) > 1', "sp": "a b  c", "e": ""}),
            ("m", 3, {"u": "ünïcødé", "tab": "a\tb", "trail": "x\\"}),
        )
        _, store = run(readings, readings)
        got = {
            labels["msg"]
            for labels, _t, _v in store.select([label_matcher("msg", "=~", ".+")], 0, 10**12)
        }
        assert got == {'say "hi"'}

    def test_an_exposition_job_or_instance_label_wins_over_the_targets(self):
        readings = batch(
            ("m", 1, {"job": "inner"}), ("m", 2, {"instance": "elsewhere:1"}), ("m", 3, None),
        )
        _, store = run(readings, readings, job="outer", instance="here:9")
        got = sorted(
            (labels["job"], labels["instance"])
            for labels, _t, _v in store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10**12)
        )
        assert got == [("inner", "here:9"), ("outer", "elsewhere:1"), ("outer", "here:9")]

    def test_a_label_set_that_changes_between_scrapes(self):
        agent, store = run(
            batch(("m", 1, {"state": "up", "pid": "1"})),
            batch(("m", 1, {"state": "down", "pid": "2"})),
            batch(("m", 2, {"pid": "2", "state": "down"}), ("m", 3, {"state": "up", "pid": "1"})),
            batch(("m", 7, None)),
        )
        by_name = [label_matcher(METRIC_NAME_LABEL, "=", "m")]
        assert len(store.select(by_name, 0, 10**12)) == 3
        # Four keys named, then a scrape of one reading: the memo that
        # outgrew twice a scrape's readings started over.
        assert list(agent._series[0]) == []

    def test_an_undeclared_family_fails_the_whole_scrape(self):
        good = batch(("m", 1, {"x": "1"}), ("n_total", 2, None))
        bad = batch(("m", 1, {"x": "1"}), ("nope", 2, None))
        agent, store = run(good, bad, good)
        assert agent.scrape_errors == 1 and agent.scrapes_done == 2
        up = store.select([label_matcher(METRIC_NAME_LABEL, "=", "up")], 0, 10**12)
        assert up[0][2].tolist() == [1.0, 0.0, 1.0]
        # Nothing of the failed scrape was stored, not even its good readings.
        (m,) = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10**12)
        assert len(m[1]) == 2

    def test_a_reading_naming_no_valid_series_fails_the_whole_scrape(self):
        good = batch(("m", 1, {"x": "1"}))
        for bad in (
            batch(("m", 1, {"x": "1"}), ("m", 2, {"9bad": "v"})),
            batch(("m", 1, {"x": "1"}), ("m", 2, {"x": 3})),
            batch(("m", "one", {"x": "1"})),
        ):
            agent, store = run(good, bad, good)
            assert agent.scrape_errors == 1
            (m,) = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10**12)
            assert len(m[1]) == 2

    def test_each_target_has_its_own_series(self, world):
        clock, store, agent = world
        agent.add_target(ScrapeTarget("j", "one", FakeExporter([("m", 1.0, {"x": "1"})])))
        agent.add_target(ScrapeTarget("j", "two", FakeExporter([("m", 2.0, {"x": "1"})])))
        for _ in range(3):
            clock.advance(seconds(15))
            assert agent.scrape_all() == 2
        got = {
            labels["instance"]: vals.tolist()
            for labels, _t, vals in store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10**12)
        }
        assert got == {"one": [1.0] * 3, "two": [2.0] * 3}

    def test_every_exporter_of_the_all_planes_framework(self):
        """Each target of the all-planes framework, two scrapes into a
        warmed-up run: its batches stored directly and through their
        text make the same store."""
        from repro.core.framework import MonitoringFramework
        from tests.test_wiring_manifest import FLAGS, _config

        fw = MonitoringFramework(_config(FLAGS, tracing_sampling=1.0))
        fw.start()
        fw.run_for(minutes(3))
        clock = SimClock(fw.clock.now_ns)
        store, reference = TimeSeriesStore(), TimeSeriesStore()
        agent = VMAgent(store, clock)
        targets = []
        for target in fw.vmagent.targets():
            batches = [target.exporter.scrape() for _ in range(2)]
            replay = Replay(*(lambda b=b: b for b in batches))
            targets.append(ScrapeTarget(target.job, target.instance, replay))
            agent.add_target(targets[-1])
        assert len(targets) > 10
        for _ in range(2):
            clock.advance(seconds(15))
            agent.scrape_all()
            for target in targets:
                assert scrape_through_text(
                    reference, target, target.exporter.served, clock.now_ns
                ) is not None
            assert contents(store) == contents(reference)
        assert agent.scrape_errors == 0
