"""A rule group is one evaluation (DESIGN §3 "the group is the unit",
§15 "the stage rule"): whatever the rules of a group share — a read, a
sub-expression — is done once a cycle, and nothing a rule returns may
depend on that.  The reference is the evaluator as it was, kept here as
plain loops: every rule its own ``query_instant``, its output ingested
(or its alert states advanced) before the next rule is asked.

* recording groups: the same ``ingest`` calls in the same order with
  bit-equal values, the same ``eval_errors``;
* alerting groups, vmalert's and the Loki Ruler's: the same events in
  the same order, the same series pending and firing;
* a rule that fails at runtime is counted and skipped, its alert states
  left as they were, and never stops the clock (a regression: it
  silenced vmalert for good);
* the budget at the bottom: what one steady-state SLO tick may cost, in
  calls, not in time.
"""

from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.alerting.events import AlertState
from repro.alerting.rules import RuleEvaluator, RuleSpec
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.errors import QueryError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, minutes, seconds
from repro.common.vector import Evaluation
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.planes import PLANES
from repro.loki.logql.engine import LogQLEngine
from repro.loki.logql.parser import parse as parse_logql
from repro.loki.model import LogEntry
from repro.loki.ruler import Ruler
from repro.loki.store import LokiStore
from repro.slo import SLO, SloManager, StaticSource
from repro.tsdb import PromQLEngine, RecordingEngine, RecordingRule, TimeSeriesStore
from repro.tsdb.promql import parse_promql
from repro.tsdb.vmalert import VMAlert
from tests.test_stream_refs import counted

STEP = seconds(5)
LOOKBACK = int(seconds(12))
#: Range windows: under one step (never two samples), a few steps, more
#: than a run is long — so one selector is asked for several widths and a
#: series can have samples in the widest and none in the narrowest.
WINDOWS = ("4s", "11s", "30s", "90s")

#: Base series: (metric, labels).  ``c`` has no ``job="y"``, ``b`` has a
#: third series, so joins drop rows and aggregations regroup.
BASE = [
    ("a", {"job": "x"}), ("a", {"job": "y"}),
    ("b", {"job": "x"}), ("b", {"job": "y"}), ("b", {"job": "y", "zone": "1"}),
    ("c", {"job": "x"}),
]
RECORDS = ("r0", "r1", "r2", "r3")
#: What a rule may read: base metrics and what rules record — its own
#: output and a later rule's included.
NAMES = ("a", "b", "c", *RECORDS)

#: Expression shapes over names {m}/{n} and windows {w}/{v}.  Quarters
#: and integers only, so every sum is exact and "bit-equal" is a fair ask
#: of a counter's reset carry summed over a wider read.
SHAPES = (
    "{m}",
    '{m}{{job="x"}}',
    "increase({m}[{w}])",
    "rate({m}[{w}]) * 4",
    "increase({m}[{w}]) + increase({m}[{v}])",
    "max_over_time({m}[{w}]) - {m}",
    "(increase({m}[{w}]) - increase({n}[{w}])) / (increase({m}[{w}]) > 0)",
    "(increase({m}[{w}]) - increase({n}[{w}])) / (increase({m}[{w}]) > 0) / 0.25",
    "sum by (job) ({m}) + sum by (job) ({n})",
    "{m} * 2",
    "{m} + {n}",
    "{m} + 1",
    "count_over_time({m}[{w}]) unless {n} > 8",
    'sum by (job) ({{__name__=~"{m}|{n}"}})',
    'count_over_time({{__name__=~"{m}|{n}"}}[{w}])',
    '{{job="x"}} * 2',  # no __name__ matcher: duplicates drop their name and collide
    '{m} / {{__name__=~"{m}|{n}"}}',  # many-to-one wherever both names have series
    "absent({m})",
    "topk(1, {m})",
)

rules_st = st.lists(
    st.tuples(
        st.sampled_from(RECORDS),
        st.sampled_from(SHAPES),
        st.sampled_from(NAMES), st.sampled_from(NAMES),
        st.sampled_from(WINDOWS), st.sampled_from(WINDOWS),
        st.sampled_from([{}, {"window": "w"}]),
    ),
    min_size=1, max_size=8,
)
#: Per cycle and base series: None (no sample: the series falls behind
#: and out of the narrow windows) or a quarter-valued increment, negative
#: for a counter reset.
cycles_st = st.lists(
    st.lists(
        st.one_of(st.none(), st.integers(-6, 12)), min_size=len(BASE), max_size=len(BASE)
    ),
    min_size=2, max_size=6,
)


def build_rules(specs) -> list[RecordingRule]:
    rules, seen = [], set()
    for record, shape, m, n, w, v, labels in specs:
        expr = shape.format(m=m, n=n, w=w, v=v)
        if (record, expr) not in seen:
            seen.add((record, expr))
            rules.append(RecordingRule(record=record, expr=expr, labels=labels))
    return rules


class LoggedStore(TimeSeriesStore):
    """A store that remembers every ``ingest`` call, value by its bits."""

    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def ingest(self, name, labels, value, timestamp_ns, exemplar=None):
        self.log.append((name, LabelSet(labels).items_tuple(), float(value).hex(), timestamp_ns))
        return super().ingest(name, labels, value, timestamp_ns, exemplar)


class PerRuleRecording:
    """The recording engine as it was: one instant query a rule."""

    def __init__(self, engine: PromQLEngine, store: TimeSeriesStore, clock: SimClock):
        self.engine, self.store, self.clock = engine, store, clock
        self.rules: list[RecordingRule] = []
        self.samples_recorded = self.eval_errors = 0

    def evaluate_all(self) -> None:
        now = self.clock.now_ns
        for rule in self.rules:
            try:
                samples = self.engine.query_instant(rule.ast, now)
            except QueryError:
                self.eval_errors += 1
                continue
            for sample in samples:
                labels = sample.labels.without("__name__").with_labels(**rule.labels)
                self.samples_recorded += self.store.ingest(rule.record, labels, sample.value, now)


def feed(store: TimeSeriesStore, totals: list[float], increments, now: int) -> None:
    for i, ((name, labels), inc) in enumerate(zip(BASE, increments)):
        if inc is not None:
            totals[i] = max(0.0, totals[i] + inc / 4)
            store.ingest(name, labels, totals[i], now)


def assert_group_equals_rule_by_rule(specs, cycles) -> RecordingEngine:
    rules = build_rules(specs)
    clock = SimClock(0)
    stores = LoggedStore(), LoggedStore()
    grouped = RecordingEngine(PromQLEngine(stores[0], LOOKBACK), stores[0], clock)
    reference = PerRuleRecording(PromQLEngine(stores[1], LOOKBACK), stores[1], clock)
    for rule in rules:
        grouped.add_rule(rule)
    reference.rules = rules
    totals = [[0.0] * len(BASE), [0.0] * len(BASE)]
    for increments in cycles:
        clock.advance(STEP)
        for store, running in zip(stores, totals):
            feed(store, running, increments, clock.now_ns)
        grouped.evaluate_all()
        reference.evaluate_all()
    assert stores[0].log == stores[1].log
    assert grouped.samples_recorded == reference.samples_recorded
    assert grouped.eval_errors == reference.eval_errors
    assert [rule for stage in grouped.stages() for rule in stage] == rules
    return grouped


class TestRecordingGroupEqualsRuleByRule:
    @settings(max_examples=120, deadline=None)
    @given(specs=rules_st, cycles=cycles_st)
    def test_same_samples_same_order_same_bits(self, specs, cycles):
        assert_group_equals_rule_by_rule(specs, cycles)

    def test_the_pool_holds_what_it_says(self):
        """The property is only worth its name if the generated groups
        can fail, chain and share: this one has a rule before its
        producer, two sharing a sub-expression, one that raises
        mid-group, one reading its own output and a chained one."""
        ratio, burn, many_to_one, summed = SHAPES[6], SHAPES[7], SHAPES[16], SHAPES[13]
        specs = [
            ("r1", "{m} * 2", "r0", "a", "4s", "4s", {}),
            ("r0", burn, "a", "b", "30s", "4s", {}),
            ("r2", ratio, "a", "b", "30s", "4s", {}),
            ("r1", many_to_one, "a", "b", "4s", "4s", {}),
            ("r3", summed, "r3", "a", "4s", "4s", {}),
            ("r0", "{m} * 2", "r2", "a", "4s", "4s", {"window": "w"}),
        ]
        cycles = [[4 + k, 3, 2, 1, 1, 5] for k in range(4)]
        engine = assert_group_equals_rule_by_rule(specs, cycles)
        assert engine.eval_errors == len(cycles)
        assert [len(stage) for stage in engine.stages()] == [5, 1]
        store = engine._store
        at = store.log[-1][3]
        values = lambda name: {  # noqa: E731
            labels: float.fromhex(value)
            for n, labels, value, ts in store.log if n == name and ts == at
        }
        job_x, job_y = (("job", "x"),), (("job", "y"),)
        # Between the four samples the 30 s window holds, a{x} rose
        # 5+6+7 quarters and b{x} 3·2.
        assert values("r2")[job_x] == (4.5 - 1.5) / 4.5
        assert values("r0")[job_x] == values("r2")[job_x] / 0.25
        assert values("r0")[(("job", "x"), ("window", "w"))] == values("r2")[job_x] * 2
        # r1 read r0 before this cycle's r0 was there: last cycle's burn,
        # of 5+6 quarters against 2·2.
        assert values("r1")[job_x] == 2 * ((2.75 - 1.0) / 2.75 / 0.25)
        # r3 adds a to itself, cycle after cycle.
        assert values("r3")[job_y] == 4 * 0.75 + 3 * 0.75 + 2 * 0.75 + 0.75

    def test_an_increase_does_not_depend_on_the_read_width(self):
        """A counter's reset losses are summed inside the window.  Here
        ``r3`` is reset within one instant by colliding series, one of
        them a rate (not a quarter), and ``increase(r3[4s])`` shares a
        stage with ``r3``, whose lookback widens the read to the cycle
        before: losses summed from the read's start and differenced
        came out 2 ulp off the rule evaluated alone."""
        specs = [
            ("r0", "{m}", "a", "a", "4s", "4s", {}),
            ("r1", '{{job="x"}} * 2', "a", "a", "4s", "4s", {}),
            ("r0", "rate({m}[{w}]) * 4", "r1", "a", "11s", "4s", {}),
            ("r3", '{{job="x"}} * 2', "a", "a", "4s", "4s", {}),
            ("r0", "{m}", "r3", "a", "4s", "4s", {}),
            ("r0", "increase({m}[{w}])", "r3", "a", "4s", "4s", {}),
        ]
        cycles = [[None] * 6, [None, None, 1, None, None, 0], [None] * 6]
        engine = assert_group_equals_rule_by_rule(specs, cycles)
        assert [len(stage) for stage in engine.stages()][-1] == 2


class TestStageRule:
    """A rule starts a new stage iff one of its selectors can match a
    name an earlier rule of the current stage records."""

    def stages(self, *rules: tuple[str, str]) -> list[list[str]]:
        store = TimeSeriesStore()
        engine = RecordingEngine(PromQLEngine(store), store, SimClock(0))
        for record, expr in rules:
            engine.add_rule(RecordingRule(record=record, expr=expr))
        return [[rule.record for rule in stage] for stage in engine.stages()]

    def test_rules_over_raw_series_share_a_stage(self):
        assert self.stages(("r0", "rate(a[1m])"), ("r1", "rate(a[5m]) / rate(b[5m])")) == [
            ["r0", "r1"]
        ]

    def test_a_consumer_opens_a_stage(self):
        assert self.stages(("r0", "a"), ("r1", "r0 * 2"), ("r2", "b"), ("r3", "r1 + r2")) == [
            ["r0"], ["r1", "r2"], ["r3"],
        ]

    def test_only_the_current_stage_counts(self):
        # r0 was recorded two stages back: whoever reads it now reads the
        # store, like any raw series.
        assert self.stages(("r0", "a"), ("r1", "r0"), ("r2", "r0 + 1")) == [
            ["r0"], ["r1", "r2"],
        ]

    def test_reading_ahead_or_oneself_does_not_cut(self):
        assert self.stages(("r1", "r0 * 2"), ("r0", "a"), ("r2", "r2 + 1")) == [
            ["r1", "r0", "r2"]
        ]

    @pytest.mark.parametrize(
        ("selector", "cuts"),
        [
            ('{__name__=~"r0|zzz"}', True),
            ('{__name__=~"r.*"}', True),
            ('{__name__=~"q.*"}', False),
            ('{__name__!="r0", job="x"}', False),
            ('{__name__!="a", job="x"}', True),
            ('{job="x"}', True),  # no __name__ matcher: could be anything
            ('rate({__name__=~"r0|b"}[1m])', True),
            ("absent(r0)", True),
            ("a unless topk(1, sum by (job) (r0))", True),
        ],
    )
    def test_can_match_goes_by_the_name_matchers(self, selector, cuts):
        assert self.stages(("r0", "a"), ("r1", selector)) == (
            [["r0"], ["r1"]] if cuts else [["r0", "r1"]]
        )

    def test_chaining_holds_in_the_same_cycle(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        promql = PromQLEngine(store)
        engine = RecordingEngine(promql, store, clock)
        engine.add_rule(RecordingRule(record="late", expr="twice + 1"))
        engine.add_rule(RecordingRule(record="twice", expr="a * 2"))
        engine.add_rule(RecordingRule(record="chained", expr="twice + 1"))
        for value in (1.0, 10.0):
            clock.advance(seconds(30))
            store.ingest("a", {"job": "x"}, value, clock.now_ns)
            engine.evaluate_all()
        at = clock.now_ns
        assert [s.value for s in promql.query_instant("chained", at)] == [21.0]
        # Registered before its producer: last cycle's value.
        assert [s.value for s in promql.query_instant("late", at)] == [3.0]


# ----------------------------------------------------------------------
# Alerting groups
# ----------------------------------------------------------------------
class PerRule(RuleEvaluator):
    """The alert evaluator as it was: one instant query a rule, through
    the per-rule hook :class:`RuleEvaluator` keeps."""

    def __init__(self, engine, parse, clock, notifier):
        super().__init__(clock, notifier, generator="per-rule")
        self._engine, self._parse = engine, parse

    def _compile(self, expr):
        return self._parse(expr)

    def _query(self, compiled, time_ns):
        return self._engine.query_instant(compiled, time_ns)


def transcript(events) -> list[tuple]:
    return [
        (e.labels.items_tuple(), e.state, float(e.value).hex(), e.started_at_ns,
         e.fired_at_ns, tuple(sorted(e.annotations.items())))
        for e in events
    ]


ALERT_SHAPES = (
    "{m} > 2",
    "{m} > 2 and {n} > 1",
    "increase({m}[{w}]) > 1",
    "increase({m}[{w}]) > 1 and increase({m}[{v}]) > 2",
    "rate({m}[{w}]) > 0.1 unless {n} > 6",
    "sum by (job) ({m}) > 4",
    "absent({m})",
    '{m} / {{__name__=~"{m}|{n}"}} > 0',
    "topk(1, {m}) > 0",
)
alerts_st = st.lists(
    st.tuples(
        st.sampled_from(ALERT_SHAPES),
        st.sampled_from("abc"), st.sampled_from("abc"),
        st.sampled_from(WINDOWS), st.sampled_from(WINDOWS),
        st.sampled_from(["0s", "5s", "10s"]),
    ),
    min_size=1, max_size=7,
)


def alert_rules(specs) -> list[RuleSpec]:
    return [
        RuleSpec(
            name=f"Rule{i}", expr=shape.format(m=m, n=n, w=w, v=v), for_=for_,
            labels={"severity": "warning"},
            annotations={"summary": "{{ $labels.job }} at {{ $value }}"},
        )
        for i, (shape, m, n, w, v, for_) in enumerate(specs)
    ]


class TestAlertingGroupEqualsRuleByRule:
    @settings(max_examples=100, deadline=None)
    @given(specs=alerts_st, cycles=cycles_st)
    def test_vmalert(self, specs, cycles):
        clock = SimClock(0)
        store = TimeSeriesStore()
        engine = PromQLEngine(store, LOOKBACK)
        got, want = [], []
        grouped = VMAlert(engine, clock, got.append)
        reference = PerRule(engine, parse_promql, clock, want.append)
        for rule in alert_rules(specs):
            grouped.add_rule(rule)
            reference.add_rule(rule)
        totals = [0.0] * len(BASE)
        for increments in cycles:
            clock.advance(STEP)
            feed(store, totals, increments, clock.now_ns)
            assert transcript(grouped.evaluate_all()) == transcript(reference.evaluate_all())
        assert transcript(got) == transcript(want)
        assert grouped.eval_errors == reference.eval_errors
        assert grouped.firing_series() == reference.firing_series()
        assert grouped.pending_series() == reference.pending_series()

    LOG_SHAPES = (
        'count_over_time({{app="{m}"}}[{w}]) > 1',
        'sum(count_over_time({{app="{m}"}} |= "err" [{w}])) > 0',
        'count_over_time({{app="{m}"}}[{w}]) > 1 and count_over_time({{app="{m}"}}[{w}]) < 4',
        'sum by (app) (rate({{app=~"{m}|{n}"}}[{w}])) > 0.1',
        'count_over_time({{app="{m}"}}[{w}]) > count_over_time({{app="{m}"}}[{v}]) - 2',
        'sum by (level) (count_over_time({{app="{m}"}} | logfmt [{w}])) > 1',
        'bytes_over_time({{app="{m}"}}[{w}]) / count_over_time({{app="{m}"}}[{w}]) > 12',
    )

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from(LOG_SHAPES), st.sampled_from("ab"), st.sampled_from("ab"),
                st.sampled_from(WINDOWS), st.sampled_from(WINDOWS),
                st.sampled_from(["0s", "5s"]),
            ),
            min_size=1, max_size=6,
        ),
        cycles=st.lists(
            st.lists(st.tuples(st.sampled_from("ab"), st.booleans()), max_size=4),
            min_size=2, max_size=6,
        ),
    )
    def test_loki_ruler(self, specs, cycles):
        clock = SimClock(0)
        store = LokiStore()
        engine = LogQLEngine(store)
        got, want = [], []
        grouped = Ruler(engine, clock, got.append)
        reference = PerRule(engine, parse_logql, clock, want.append)
        for rule in alert_rules(specs):
            grouped.add_rule(rule)
            reference.add_rule(rule)
        for lines in cycles:
            clock.advance(STEP)
            for k, (app, bad) in enumerate(lines):
                store.push_stream(
                    {"app": app, "host": "n1"},
                    [LogEntry(clock.now_ns - len(lines) + k,
                              f"level={'err' if bad else 'info'} msg=line{k}")],
                )
            assert transcript(grouped.evaluate_all()) == transcript(reference.evaluate_all())
        assert transcript(got) == transcript(want)
        assert grouped.firing_series() == reference.firing_series()


class TestAFailingAlertRule:
    """It raised out of ``run_for``, and ``SimClock.every`` re-arms only
    after the callback returns: vmalert never evaluated again."""

    POISON = RuleSpec(
        name="Poison",
        expr='{__name__=~"node_up|node_temp_celsius"} / {__name__=~"node_up|node_temp_celsius"} > 0',
    )

    @pytest.mark.parametrize("planes_on", [False, True], ids=["bare", "all-planes"])
    def test_the_rest_of_the_pipeline_keeps_alerting(self, planes_on):
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
                **{plane.flag: planes_on for plane in PLANES},
            )
        )
        fw.vmalert.add_rule(self.POISON)  # accepted: it parses
        fw.start()
        fw.faults.schedule(FaultKind.CABINET_LEAK, sorted(fw.cluster.cabinets)[0], delay_ns=minutes(1))
        fw.faults.schedule(FaultKind.NODE_DOWN, sorted(fw.cluster.nodes)[0], delay_ns=minutes(1))
        fw.run_for(minutes(10))
        assert fw.vmalert.evaluations >= 10  # still on the clock
        assert fw.vmalert.eval_errors >= 10 and fw.ruler.eval_errors == 0
        assert any("CabinetLeak" in i.short_description for i in fw.servicenow.incidents())
        # A default vmalert rule, registered after the poison one.
        assert any(name == "NodeDown" for name, _labels in fw.vmalert.firing_series())
        assert any("NodeDown" in m.text for m in fw.slack.messages)

    def test_a_failed_evaluation_leaves_the_rule_as_it_was(self):
        """Neither resolved nor advanced: Prometheus keeps a rule's
        alerts over an evaluation that failed."""
        clock = SimClock(0)
        store = TimeSeriesStore()
        events = []
        vmalert = VMAlert(PromQLEngine(store, int(seconds(40))), clock, events.append)
        vmalert.add_rule(RuleSpec(name="Ratio", expr='m / {__name__=~"n|n2"} > 0', for_="30s"))
        vmalert.add_rule(RuleSpec(name="Plain", expr="m > 0"))

        def cycle(**samples: float) -> list:
            clock.advance(seconds(30))
            for name, value in samples.items():
                store.ingest(name, {"job": "x"}, value, clock.now_ns)
            return [(e.name, e.state) for e in vmalert.evaluate_all()]

        assert cycle(m=1.0, n=1.0) == [("Plain", AlertState.FIRING)]
        assert vmalert.pending_series()[0][0] == "Ratio"
        # n2 turns up beside n: many-to-one, the rule fails...
        assert cycle(m=1.0, n=1.0, n2=1.0) == []
        assert vmalert.eval_errors == 1 and vmalert.evaluations == 2
        # ...stays pending since when it was, and fires on time once the
        # evaluation works again (n2 gone stale), not 30 s after that.
        assert vmalert.pending_series()[0][0] == "Ratio"
        assert cycle(m=1.0, n=1.0) == []  # n2 still inside the lookback
        assert vmalert.eval_errors == 2
        assert cycle(m=1.0, n=1.0) == [("Ratio", AlertState.FIRING)]
        assert events[-1].started_at_ns == seconds(30)
        # A firing rule that fails is not resolved by the failure.
        assert cycle(m=1.0, n=1.0, n2=1.0) == []
        assert [name for name, _ in vmalert.firing_series()] == ["Plain", "Ratio"]

    def test_only_a_query_error_is_a_rule_that_failed(self):
        """A bug in a node the rules share must not be filed under
        ``eval_errors``: both evaluators catch ``QueryError`` alone."""
        clock = SimClock(0)
        store = TimeSeriesStore()
        store.ingest("m", {"job": "x"}, 1.0, 0)
        engine = PromQLEngine(store)
        vmalert = VMAlert(engine, clock, lambda event: None)
        vmalert.add_rule(RuleSpec(name="Plain", expr="m > 0"))
        recording = RecordingEngine(engine, store, clock)
        recording.add_rule(RecordingRule(record="r0", expr="m * 2"))
        with mock.patch.object(Evaluation, "_scalar_binop", side_effect=ZeroDivisionError):
            with pytest.raises(ZeroDivisionError):
                vmalert.evaluate_all()
            with pytest.raises(ZeroDivisionError):
                recording.evaluate_all()
        assert vmalert.eval_errors == recording.eval_errors == 0


# ----------------------------------------------------------------------
# The SLO plane's group
# ----------------------------------------------------------------------
def series_of(store: TimeSeriesStore, selector: str, until_ns: int) -> dict:
    return {
        labels.without("__name__", "window"): (ts.tolist(), [v.hex() for v in values.tolist()])
        for labels, ts, values in store.select(parse_promql(selector).matchers, 0, until_ns + 1)
    }


class TestHeatmapAlias:
    """``slo_burn_rate{window=w}`` re-emits ``slo_burn_rate_<w>``.  Its
    rules sat behind the *first* SLO's burn rules only, so every later
    SLO's alias read the previous cycle: one tick late, value by value."""

    NAMES = ("ingest", "latency", "delivery", "freshness")

    @pytest.mark.parametrize("order", list(permutations(range(4)))[::5])
    def test_equals_its_source_at_equal_timestamps(self, order):
        clock = SimClock(0)
        store = TimeSeriesStore()
        manager = SloManager(clock, PromQLEngine(store), store)
        collectors = {}

        def cycle(k: int) -> None:
            clock.advance(seconds(30))
            for i, (name, collector) in enumerate(collectors.items()):
                collector.inject(100.0, float((k * (i + 1)) % 7))
                snap = collector.snapshot()
                labels = {"slo": name, "job": "slo"}
                store.ingest("slo_sli_good_total", labels, snap.good, clock.now_ns)
                store.ingest("slo_sli_total", labels, snap.total, clock.now_ns)
            manager.tick()

        for k, which in enumerate(order):
            name = self.NAMES[which]
            collectors[name] = manager.register(
                SLO(name=name, description="x", objective=0.99), StaticSource()
            )
            cycle(k)  # the last one joins a group that is already ticking
        for k in range(4, 16):
            cycle(k)
        for window in manager._distinct_windows():
            source = series_of(store, f"slo_burn_rate_{window}", clock.now_ns)
            alias = series_of(store, f'slo_burn_rate{{window="{window}"}}', clock.now_ns)
            assert len(source) == 4 and alias == source
        # One ratio rule a window covers every SLO; the aliases are read
        # back after all of them, however many joined.
        assert len(manager._ratio_rules) == len(manager._aliases) == 7
        assert manager.recording.eval_errors == 0


def tick_nodes(slos: int) -> list[int]:
    """Nodes evaluated by one steady-state tick of ``slos`` SLOs over the
    default windows, evaluation by evaluation."""
    clock = SimClock(0)
    store = TimeSeriesStore()
    manager = SloManager(clock, PromQLEngine(store), store)
    collectors = {
        f"slo-{i}": manager.register(SLO(name=f"slo-{i}", description="x"), StaticSource())
        for i in range(slos)
    }

    def cycle() -> None:
        clock.advance(seconds(30))
        for name, collector in collectors.items():
            collector.inject(99.0, 1.0)
            snap = collector.snapshot()
            labels = {"slo": name, "job": "slo"}
            store.ingest("slo_sli_good_total", labels, snap.good, clock.now_ns)
            store.ingest("slo_sli_total", labels, snap.total, clock.now_ns)
        manager.tick()

    for _ in range(4):
        cycle()
    with counted(Evaluation, "_evaluate") as nodes:
        cycle()
    per_evaluation: dict[int, int] = {}
    for call in nodes.call_args_list:
        evaluation = id(call.args[0])
        per_evaluation[evaluation] = per_evaluation.get(evaluation, 0) + 1
    return list(per_evaluation.values())


class TestSteadyStateTickBudget:
    """Call counts, no timing: one tick of the default plane — 4 SLOs ×
    7 windows — asked the TSDB 147 times when every rule was its own
    query, and 22 times when each SLO had its own rules in one group."""

    def test_one_tick_of_the_default_plane(self):
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
                **{plane.flag: True for plane in PLANES},
            )
        )
        fw.start()
        fw.run_for(minutes(10))  # every series seen, every label set memoised
        manager = fw.slo_manager
        assert len(manager.slos()) == 4 and len(manager._ratio_rules) == 7
        recorded = manager.recording.samples_recorded
        with (
            counted(TimeSeriesStore, "select") as selects,
            counted(LabelSet, "__init__") as labelsets,
            counted(Evaluation, "_evaluate") as nodes,
        ):
            manager.tick()
        assert manager.recording.samples_recorded > recorded
        # The 2 SLI counters, then the 7 burn families read back.
        assert selects.call_count <= 9
        assert labelsets.call_count == 0
        # The ratio group and the read-back; in each, no node twice.
        evaluated: dict[int, list] = {}
        for call in nodes.call_args_list:
            evaluation, expr = call.args
            evaluated.setdefault(id(evaluation), []).append(expr)
        assert len(evaluated) == 2
        for exprs in evaluated.values():
            assert len(set(exprs)) == len(exprs)

    def test_the_tick_costs_per_window_not_per_slo(self):
        # 7 ratio rules of 5 nodes, then the 7 families read back.
        assert tick_nodes(1) == tick_nodes(4) == [35, 7]
