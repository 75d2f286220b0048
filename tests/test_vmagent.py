"""Tests for vmagent scraping."""

import pytest

from repro.common.errors import ValidationError
from repro.common.labels import label_matcher, METRIC_NAME_LABEL
from repro.common.simclock import SimClock, minutes, seconds
from repro.exporters.textformat import parse_exposition
from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb.vmagent import ScrapeTarget, VMAgent


class FakeExporter:
    def __init__(self, text="m 1.0\n"):
        self.text = text
        self.calls = 0

    def scrape(self):
        self.calls += 1
        return self.text


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
            ScrapeTarget("j", "i", FakeExporter('m{job="inner"} 1.0\n'))
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
        agent.add_target(ScrapeTarget("j", "i", FakeExporter("a 1\nb 2\n")))
        pushed = agent.scrape_all()
        assert pushed == 2
        assert agent.samples_pushed == 2
        assert agent.scrapes_done == 1


class ScriptedExporter:
    """Serves one exposition per scrape, in order."""

    def __init__(self, *texts):
        self.texts = list(texts)

    def scrape(self):
        return self.texts.pop(0)


def scrape_without_memo(store, target, text, now):
    """What a scrape stores, by way of ``parse_exposition`` alone: every
    head of every line through the label grammar.  Returns samples
    pushed, or None for a failed scrape."""
    up = {"job": target.job, "instance": target.instance}
    try:
        points = parse_exposition(text)
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


class TestHeadMemo:
    """A line head seen before skips the label grammar; nothing else may
    change, scrape by scrape and line by line."""

    def run(self, *texts, job="j", instance="i"):
        clock = SimClock(0)
        store, reference = TimeSeriesStore(), TimeSeriesStore()
        agent = VMAgent(store, clock)
        target = ScrapeTarget(job, instance, ScriptedExporter(*texts))
        agent.add_target(target)
        pushed = scrapes = errors = 0
        for text in texts:
            clock.advance(seconds(15))
            got = agent.scrape_all()
            want = scrape_without_memo(reference, target, text, clock.now_ns)
            assert got == (want or 0)
            pushed += want or 0
            scrapes += want is not None
            errors += want is None
            assert (agent.samples_pushed, agent.scrapes_done, agent.scrape_errors) == (
                pushed, scrapes, errors
            )
            assert contents(store) == contents(reference)
        return agent, store

    def test_repeated_scrapes_store_what_unmemoised_scrapes_store(self):
        text = 'a{x="1"} 1\na{x="2"} 2.5\nb 3\n# HELP c help\nc{} 4\n'
        _, store = self.run(text, text, text.replace(" 2.5", " NaN").replace(" 3", " +Inf"))
        assert store.series_count() == 5  # a×2, b, c, up

    def test_a_label_set_that_changes_between_scrapes(self):
        agent, store = self.run(
            'm{state="up",pid="1"} 1\n',
            'm{state="down",pid="2"} 1\n',
            'm{pid="2",state="down"} 2\nm{state="up",pid="1"} 3\n',
            'm 7\n',
        )
        by_name = [label_matcher(METRIC_NAME_LABEL, "=", "m")]
        assert len(store.select(by_name, 0, 10**12)) == 3
        # The memo holds the heads of the last good scrape, no more.
        assert list(agent._heads[0]) == ["m"]

    def test_escaped_quotes_backslashes_newlines_and_braces_in_values(self):
        text = (
            'm{path="C:\\\\dir\\\\f",msg="say \\"hi\\"",nl="a\\nb"} 1\n'
            'm{expr="rate(x{a=\\"b\\"}[5m]) > 1",sp="a b  c"} 2\n'
            'm{ws = "padded" , other="x" } 3\n'
        )
        _, store = self.run(text, text)
        got = {
            tuple(sorted((k, v) for k, v in labels.items() if k not in ("job", "instance", METRIC_NAME_LABEL)))
            for labels, _t, _v in store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10**12)
        }
        assert got == {
            (("msg", 'say "hi"'), ("nl", "a\nb"), ("path", "C:\\dir\\f")),
            (("expr", 'rate(x{a="b"}[5m]) > 1'), ("sp", "a b  c")),
            (("other", "x"), ("ws", "padded")),
        }

    def test_lines_carrying_a_timestamp_field(self):
        self.run(
            'm{x="1"} 1 1646272077000\nn 2 1646272077000\n',
            'm{x="1"} 2 1646272092000\nn 3\n',
            'm{x="1"}   3\t1646272107000\n',
        )

    def test_a_bad_field_behind_a_memoised_head_fails_the_scrape(self):
        good = 'm{x="1"} 1\nn 2\n'
        for bad in (
            'm{x="1"} one\nn 2\n',
            'm{x="1"} 1 2 3\nn 2\n',
            'm{x="1"} 1 soon\nn 2\n',
            'm{x="1"}\nn 2\n',
            'n 2\nm{x="1"} 1\nn\n',
            'm{x="1"} 1\nm{x="1" 2\n',
            'm{x="1"} 1}\n',
        ):
            agent, store = self.run(good, bad, good)
            assert agent.scrape_errors == 1 and agent.scrapes_done == 2
            up = store.select([label_matcher(METRIC_NAME_LABEL, "=", "up")], 0, 10**12)
            assert up[0][2].tolist() == [1.0, 0.0, 1.0]
            # Nothing of the bad exposition was stored, not even its good lines.
            m = store.select([label_matcher(METRIC_NAME_LABEL, "=", "n")], 0, 10**12)
            assert len(m[0][1]) == 2

    def test_an_exposition_job_label_wins_over_the_targets(self):
        text = 'm{job="inner"} 1\nm{instance="elsewhere:1"} 2\nm 3\n'
        _, store = self.run(text, text, job="outer", instance="here:9")
        got = sorted(
            (labels["job"], labels["instance"])
            for labels, _t, _v in store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10**12)
        )
        assert got == [("inner", "here:9"), ("outer", "elsewhere:1"), ("outer", "here:9")]

    def test_a_head_the_grammar_ends_elsewhere_is_never_memoised(self):
        # `m1.5 2` is metric m1 with value .5 and timestamp 2.
        agent, store = self.run("m1.5 2\nok 1\n", "m1.5 2\nok 1\n")
        assert list(agent._heads[0]) == ["ok"]
        (series,) = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m1")], 0, 10**12)
        assert series[2].tolist() == [0.5, 0.5]

    def test_each_target_has_its_own_heads(self, world):
        clock, store, agent = world
        agent.add_target(ScrapeTarget("j", "one", FakeExporter('m{x="1"} 1\n')))
        agent.add_target(ScrapeTarget("j", "two", FakeExporter('m{x="1"} 2\n')))
        for _ in range(3):
            clock.advance(seconds(15))
            assert agent.scrape_all() == 2
        got = {
            labels["instance"]: vals.tolist()
            for labels, _t, vals in store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 10**12)
        }
        assert got == {"one": [1.0] * 3, "two": [2.0] * 3}
