"""A rule group is one evaluation (DESIGN §3 "the group is the unit"):
whatever the expressions of a group share — a read, a sub-expression —
is done once a cycle, and nothing an expression returns may depend on
that.  The reference is each expression on its own, kept here as plain
loops:

* a ``PromQLEngine.group()`` evaluation: every expression's samples the
  same, value bits included, as its own ``query_instant``, or the same
  ``QueryError``;
* alerting groups, vmalert's and the Loki Ruler's: the same events in
  the same order, the same series pending and firing, as an evaluator
  that asks one instant query a rule;
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
from repro.tsdb import PromQLEngine, TimeSeriesStore
from repro.tsdb.promql import parse_promql
from repro.tsdb.vmalert import VMAlert
from tests.counting import counted
from tests.tracing import off_tracer

STEP = seconds(5)
LOOKBACK = int(seconds(12))
#: Range windows: under one step (never two samples), a few steps, more
#: than a run is long — so one selector is asked for several widths and a
#: series can have samples in the widest and none in the narrowest.
WINDOWS = ("4s", "11s", "30s", "90s")

#: Base series: (metric, labels).  ``c`` has no ``job="y"``, ``b`` has a
#: third series, so joins drop rows and aggregations regroup.  ``r0``–``r3``
#: carry the labels rule outputs had, ``window`` included, and count in
#: tenths, as inexact as the rates those outputs were.
BASE = [
    ("a", {"job": "x"}), ("a", {"job": "y"}),
    ("b", {"job": "x"}), ("b", {"job": "y"}), ("b", {"job": "y", "zone": "1"}),
    ("c", {"job": "x"}),
    ("r0", {"job": "x"}), ("r1", {"job": "y"}),
    ("r2", {"job": "x"}), ("r2", {"job": "x", "window": "w"}), ("r3", {"job": "y"}),
]
NAMES = ("a", "b", "c", "r0", "r1", "r2", "r3")

#: Expression shapes over names {m}/{n} and windows {w}/{v}.  "Bit-equal"
#: is a fair ask of inexact values too: what an expression returns depends
#: on its windows' samples alone, however wide the group reads a selector.
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

exprs_st = st.lists(
    st.tuples(
        st.sampled_from(SHAPES),
        st.sampled_from(NAMES), st.sampled_from(NAMES),
        st.sampled_from(WINDOWS), st.sampled_from(WINDOWS),
    ),
    min_size=1, max_size=8,
)
#: Per cycle and base series: None (no sample: the series falls behind
#: and out of the narrow windows) or an increment in quarters (tenths for
#: the r-names), negative for a counter reset.
cycles_st = st.lists(
    st.lists(
        st.one_of(st.none(), st.integers(-6, 12)), min_size=len(BASE), max_size=len(BASE)
    ),
    min_size=2, max_size=6,
)


def build_exprs(specs) -> list[str]:
    return list(dict.fromkeys(shape.format(m=m, n=n, w=w, v=v) for shape, m, n, w, v in specs))


def feed(store: TimeSeriesStore, totals: list[float], increments, now: int) -> None:
    for i, ((name, labels), inc) in enumerate(zip(BASE, increments)):
        if inc is not None:
            totals[i] = max(0.0, totals[i] + inc / (10 if name[0] == "r" else 4))
            store.ingest(name, labels, totals[i], now)


def outcome(query, *args) -> list | str:
    """Each sample's labels and value bits, or the error ``query`` raised."""
    try:
        return [(s.labels.items_tuple(), float(s.value).hex()) for s in query(*args)]
    except QueryError as err:
        return str(err)


def assert_group_equals_query_by_query(exprs: list[str], cycles) -> list[list]:
    """Evaluate ``exprs`` as one group each cycle; return every cycle's
    outcomes, each expression's the same as its own ``query_instant``."""
    store = TimeSeriesStore()
    engine = PromQLEngine(store, LOOKBACK)
    asts = [parse_promql(expr) for expr in exprs]
    group = engine.group(asts)
    totals = [0.0] * len(BASE)
    outcomes = []
    for k, increments in enumerate(cycles, 1):
        now = k * STEP
        feed(store, totals, increments, now)
        evaluation = group.instant(now)
        got = [outcome(evaluation.samples, ast) for ast in asts]
        assert got == [outcome(engine.query_instant, expr, now) for expr in exprs]
        outcomes.append(got)
    return outcomes


class TestGroupEqualsQueryByQuery:
    @settings(max_examples=120, deadline=None)
    @given(specs=exprs_st, cycles=cycles_st)
    def test_same_samples_same_bits(self, specs, cycles):
        assert_group_equals_query_by_query(build_exprs(specs), cycles)

    def test_the_pool_holds_what_it_says(self):
        """The property is only worth its name if the generated groups
        can fail and share: this one has two expressions sharing a
        sub-expression, one that raises mid-group, one selector read at
        three widths and a counter reset."""
        peak, ratio, burn, many_to_one = SHAPES[5], SHAPES[6], SHAPES[7], SHAPES[16]
        exprs = build_exprs([
            (burn, "a", "b", "30s", "4s"),
            (ratio, "a", "b", "30s", "4s"),
            (many_to_one, "a", "b", "4s", "4s"),
            (peak, "a", "a", "11s", "4s"),
        ])
        cycles = [[4 + k, 3, 2, 1, 1, 5] + [None] * 5 for k in range(4)]
        cycles[2][0] = -6  # a{x} resets, inside every window that reads it
        outcomes = assert_group_equals_query_by_query(exprs, cycles)
        values = lambda got: {labels: float.fromhex(v) for labels, v in got}  # noqa: E731
        job_x = (("job", "x"),)
        burns, ratios, failed, _ = outcomes[-1]
        assert failed.startswith("many-to-one")
        # In the 30 s window a{x} rose 1.25, reset to 0.75 and rose 1.75;
        # b{x} rose 0.5 a cycle.
        assert values(ratios)[job_x] == pytest.approx((3.75 - 1.5) / 3.75)
        assert values(burns)[job_x] == values(ratios)[job_x] / 0.25
        # The cycle a{x} fell: 2.25 within 11 s, 0.75 now.
        assert values(outcomes[2][3])[job_x] == 2.25 - 0.75

    def test_an_increase_does_not_depend_on_the_read_width(self):
        """A counter's reset losses are summed inside the window.  Here
        ``r3`` falls before ``increase(r3[4s])``'s window and again inside
        it, and the group reads ``r3`` back through the 12 s lookback:
        losses summed from the read's start and differenced came out an
        ulp off the query alone."""
        store = TimeSeriesStore()
        engine = PromQLEngine(store, LOOKBACK)
        for t, value in ((1, 0.1), (2, 0.0), (9, 0.2), (10, 0.0)):
            store.ingest("r3", {"job": "x"}, value, seconds(t))
        exprs = ["r3", "increase(r3[4s])"]
        asts = [parse_promql(expr) for expr in exprs]
        evaluation = engine.group(asts).instant(seconds(10))
        for expr, ast in zip(exprs, asts):
            alone = outcome(engine.query_instant, expr, seconds(10))
            assert outcome(evaluation.samples, ast) == alone


# ----------------------------------------------------------------------
# Alerting groups
# ----------------------------------------------------------------------
class PerRule(RuleEvaluator):
    """The alert evaluator as it was: one instant query a rule."""

    def __init__(self, engine, parse, clock, notifier):
        super().__init__(clock, notifier, generator="per-rule")
        self._engine, self._parse = engine, parse

    def _compile(self, expr):
        return self._parse(expr)

    def _instant(self, time_ns):
        return lambda compiled: self._engine.query_instant(compiled, time_ns)


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

    def test_a_ring_read_that_loses_quorum_is_a_failed_evaluation(self):
        """Two of three ingesters down: the Loki rules' reads are
        degraded, which the group counts and rides out, and the leak
        alert that was firing stays firing."""
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
                enable_ingest_ring=True,
                ring_ingesters=3,
            )
        )
        fw.start()
        fw.faults.schedule(FaultKind.CABINET_LEAK, sorted(fw.cluster.cabinets)[0], delay_ns=minutes(1))
        fw.run_for(minutes(5))
        firing = fw.ruler.firing_series()
        assert [name for name, _ in firing] == ["PerlmutterCabinetLeak"]
        errors, slack = fw.ruler.eval_errors, len(fw.slack.messages)
        fw.ring.crash_ingester("ingester-0")
        fw.ring.crash_ingester("ingester-1")
        fw.run_for(seconds(30))  # returns
        assert fw.ruler.eval_errors > errors
        assert fw.ruler.firing_series() == firing
        assert len(fw.slack.messages) == slack  # nothing resolved

    def test_only_a_query_error_is_a_rule_that_failed(self):
        """A bug in a node the rules share must not be filed under
        ``eval_errors``: the evaluator catches ``QueryError`` alone."""
        clock = SimClock(0)
        store = TimeSeriesStore()
        store.ingest("m", {"job": "x"}, 1.0, 0)
        vmalert = VMAlert(PromQLEngine(store), clock, lambda event: None)
        vmalert.add_rule(RuleSpec(name="Plain", expr="m > 0"))
        with mock.patch.object(Evaluation, "_scalar_binop", side_effect=ZeroDivisionError):
            with pytest.raises(ZeroDivisionError):
                vmalert.evaluate_all()
        assert vmalert.eval_errors == 0


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
        manager = SloManager(clock, PromQLEngine(store), store, tracer=off_tracer())
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


def tick_nodes(slos: int) -> list[int]:
    """Nodes evaluated by one steady-state tick of ``slos`` SLOs over the
    default windows, evaluation by evaluation."""
    clock = SimClock(0)
    store = TimeSeriesStore()
    manager = SloManager(clock, PromQLEngine(store), store, tracer=off_tracer())
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
