"""Tests for the shared rule state machine, Loki Ruler and vmalert."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import QueryError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, minutes, seconds
from repro.common.vector import Sample
from repro.alerting.events import AlertState
from repro.alerting.rules import RuleEvaluator, RuleSpec, render_template
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import PushRequest
from repro.loki.ruler import Ruler
from repro.loki.store import LokiStore
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb.vmalert import VMAlert


class TestTemplates:
    def test_labels_and_value(self):
        out = render_template(
            "Switch {{ $labels.xname }} is {{ $labels.state }} ({{ $value }})",
            LabelSet({"xname": "x1002c1r7b0", "state": "UNKNOWN"}),
            1.0,
        )
        assert out == "Switch x1002c1r7b0 is UNKNOWN (1)"

    def test_nonintegral_value(self):
        assert render_template("{{ $value }}", LabelSet(), 1.25) == "1.25"

    def test_no_space_variant(self):
        assert render_template("{{$value}}", LabelSet(), 2.0) == "2"


class TestRuleSpec:
    def test_requires_name(self):
        with pytest.raises(ValidationError):
            RuleSpec(name="", expr="x")

    def test_for_validated(self):
        with pytest.raises(ValidationError):
            RuleSpec(name="r", expr="x", for_="notaduration")

    def test_for_ns(self):
        assert RuleSpec(name="r", expr="x", for_="1m").for_ns == minutes(1)


@pytest.fixture
def loki_world():
    clock = SimClock(0)
    store = LokiStore()
    engine = LogQLEngine(store)
    events = []
    ruler = Ruler(engine, clock, events.append)
    return clock, store, ruler, events


class TestRuler:
    def test_log_query_rule_rejected(self, loki_world):
        _, _, ruler, _ = loki_world
        with pytest.raises(QueryError):
            ruler.add_rule(RuleSpec(name="bad", expr='{a="b"}'))

    def test_duplicate_rule_rejected(self, loki_world):
        _, _, ruler, _ = loki_world
        rule = RuleSpec(name="r", expr='count_over_time({a="b"}[1m]) > 0')
        ruler.add_rule(rule)
        with pytest.raises(ValidationError):
            ruler.add_rule(rule)

    def test_pending_then_firing_after_for(self, loki_world):
        clock, store, ruler, events = loki_world
        ruler.add_rule(
            RuleSpec(
                name="R",
                expr='count_over_time({a="b"}[10m]) > 0',
                for_="1m",
                labels={"severity": "critical"},
            )
        )
        clock.every(seconds(30), ruler.evaluate_all)
        clock.advance(seconds(30))
        store.push(PushRequest.single({"a": "b"}, [(clock.now_ns, "boom")]))
        clock.advance(seconds(30))  # first eval seeing it: pending
        assert events == []
        assert len(ruler.pending_series()) == 1
        clock.advance(seconds(60))  # for=1m satisfied
        assert len(events) == 1
        assert events[0].state is AlertState.FIRING
        assert events[0].labels["alertname"] == "R"
        assert events[0].labels["severity"] == "critical"
        assert len(ruler.firing_series()) == 1

    def test_evaluations_parse_nothing(self, loki_world, monkeypatch):
        from repro.loki.logql import engine as engine_module

        clock, store, ruler, events = loki_world
        ruler.add_rule(RuleSpec(name="R", expr='count_over_time({a="b"}[10m]) > 0'))

        def no_parsing(query):
            raise AssertionError(f"parsed at evaluation time: {query!r}")

        monkeypatch.setattr(engine_module, "parse", no_parsing)
        store.push(PushRequest.single({"a": "b"}, [(clock.now_ns, "x")]))
        clock.advance(seconds(1))
        ruler.evaluate_all()
        ruler.evaluate_all()
        assert [e.state for e in events] == [AlertState.FIRING]

    def test_zero_for_fires_immediately(self, loki_world):
        clock, store, ruler, events = loki_world
        ruler.add_rule(RuleSpec(name="R", expr='count_over_time({a="b"}[10m]) > 0'))
        store.push(PushRequest.single({"a": "b"}, [(clock.now_ns, "x")]))
        clock.advance(seconds(1))
        ruler.evaluate_all()
        assert len(events) == 1

    def test_resolution_when_series_disappears(self, loki_world):
        clock, store, ruler, events = loki_world
        ruler.add_rule(RuleSpec(name="R", expr='count_over_time({a="b"}[1m]) > 0'))
        store.push(PushRequest.single({"a": "b"}, [(clock.now_ns, "x")]))
        clock.advance(seconds(1))
        ruler.evaluate_all()
        clock.advance(minutes(2))  # window slides past the entry
        ruler.evaluate_all()
        assert [e.state for e in events] == [AlertState.FIRING, AlertState.RESOLVED]
        assert ruler.firing_series() == []

    def test_flap_resets_pending(self, loki_world):
        """A blip shorter than `for` must never fire."""
        clock, store, ruler, events = loki_world
        ruler.add_rule(
            RuleSpec(name="R", expr='count_over_time({a="b"}[30s]) > 0', for_="2m")
        )
        store.push(PushRequest.single({"a": "b"}, [(clock.now_ns, "x")]))
        clock.every(seconds(15), ruler.evaluate_all)
        clock.advance(minutes(10))
        assert events == []

    def test_annotations_rendered_per_series(self, loki_world):
        clock, store, ruler, events = loki_world
        ruler.add_rule(
            RuleSpec(
                name="R",
                expr='sum(count_over_time({a=~".+"}[10m])) by (a) > 0',
                annotations={"summary": "stream {{ $labels.a }} count {{ $value }}"},
            )
        )
        store.push(PushRequest.single({"a": "one"}, [(clock.now_ns, "x")]))
        store.push(PushRequest.single({"a": "two"}, [(clock.now_ns, "y"), (clock.now_ns, "z")]))
        clock.advance(seconds(1))
        ruler.evaluate_all()
        summaries = sorted(e.annotations["summary"] for e in events)
        assert summaries == ["stream one count 1", "stream two count 2"]


class TestVMAlert:
    def test_fires_on_metric_condition(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        engine = PromQLEngine(store)
        events = []
        va = VMAlert(engine, clock, events.append)
        va.add_rule(RuleSpec(name="NodeDown", expr="node_up == 0", for_="1m"))
        clock.every(seconds(30), va.evaluate_all)
        clock.advance(minutes(1))
        store.ingest("node_up", {"xname": "x1c0s0b0n0"}, 0.0, clock.now_ns)
        clock.advance(minutes(2))
        firing = [e for e in events if e.state is AlertState.FIRING]
        assert len(firing) == 1
        assert firing[0].labels["xname"] == "x1c0s0b0n0"
        assert firing[0].generator == "vmalert"

    def test_invalid_promql_rejected(self):
        clock = SimClock(0)
        va = VMAlert(PromQLEngine(TimeSeriesStore()), clock, lambda e: None)
        with pytest.raises(QueryError):
            va.add_rule(RuleSpec(name="bad", expr="this is {{not}} promql"))

    def test_resolves_when_metric_recovers(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        events = []
        va = VMAlert(PromQLEngine(store), clock, events.append)
        va.add_rule(RuleSpec(name="Down", expr="up == 0"))
        store.ingest("up", {"job": "j"}, 0.0, clock.now_ns)
        clock.advance(seconds(1))
        va.evaluate_all()
        clock.advance(seconds(30))
        store.ingest("up", {"job": "j"}, 1.0, clock.now_ns)
        va.evaluate_all()
        assert [e.state for e in events] == [AlertState.FIRING, AlertState.RESOLVED]


class ScriptedEvaluator(RuleEvaluator):
    """An evaluator whose "query language" is a script: per rule, which
    of its series are active at each evaluation."""

    def __init__(self, clock, notifier, script):
        super().__init__(clock, notifier, generator="scripted")
        self._script = script
        self.compiled_calls = []

    def _compile(self, expr):
        self.compiled_calls.append(expr)
        return ("compiled", expr)

    def _instant(self, time_ns):
        def query(compiled):
            tag, rule_name = compiled
            assert tag == "compiled"  # the parsed form, not the string
            active = self._script[self.evaluations].get(rule_name, ())
            return [
                Sample(LabelSet({"series": str(i)}), float(i), time_ns) for i in active
            ]

        return query


def flat_state_reference(rules, script, interval_ns):
    """The evaluator as it was before state was keyed per rule: one flat
    ``(rule name, labels) -> state`` dict scanned in full by every rule,
    a series' state dropped once it is inactive (after its RESOLVED).
    Returns the ``(alertname, series, state, time)`` sequence it emits."""
    state: dict = {}
    out = []
    for tick, activity in enumerate(script):
        now = (tick + 1) * interval_ns
        for rule in rules:
            active = [str(i) for i in activity.get(rule.name, ())]
            for series in active:
                st_ = state.setdefault((rule.name, series), {"since": None, "firing": False})
                if st_["since"] is None:
                    st_["since"] = now
                if not st_["firing"] and now - st_["since"] >= rule.for_ns:
                    st_["firing"] = True
                    out.append((rule.name, series, AlertState.FIRING, now))
            for (rule_name, series), st_ in list(state.items()):
                if rule_name != rule.name or series in active:
                    continue
                if st_["firing"]:
                    out.append((rule.name, series, AlertState.RESOLVED, now))
                del state[(rule_name, series)]
    return out


SCRIPT_RULES = [
    RuleSpec(name="Immediate", expr="Immediate"),
    RuleSpec(name="Sustained", expr="Sustained", for_="30s"),
    RuleSpec(name="Other", expr="Other", for_="10s"),
]

activity = st.fixed_dictionaries(
    {rule.name: st.lists(st.integers(0, 4), unique=True, max_size=5) for rule in SCRIPT_RULES}
)


class TestPerRuleState:
    @given(st.lists(activity, min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_event_order_equals_the_flat_state_evaluator(self, script):
        clock = SimClock(0)
        events = []
        evaluator = ScriptedEvaluator(clock, events.append, script)
        for rule in SCRIPT_RULES:
            evaluator.add_rule(rule)
        clock.every(seconds(10), evaluator.evaluate_all)
        clock.advance(seconds(10) * len(script))
        got = [
            (e.labels["alertname"], e.labels["series"], e.state, e.fired_at_ns)
            for e in events
        ]
        assert got == flat_state_reference(SCRIPT_RULES, script, seconds(10))
        firing = {(name, labels["series"]) for name, labels in evaluator.firing_series()}
        want_firing = set()
        for name, series, state, _ in got:
            (want_firing.add if state is AlertState.FIRING else want_firing.discard)(
                (name, series)
            )
        assert firing == want_firing

    def test_expressions_are_compiled_once_at_registration(self):
        clock = SimClock(0)
        script = [{"Immediate": [1]}] * 5
        evaluator = ScriptedEvaluator(clock, lambda e: None, script)
        evaluator.add_rule(SCRIPT_RULES[0])
        for _ in script:
            evaluator.evaluate_all()
        assert evaluator.compiled_calls == ["Immediate"]

    def test_a_rule_walks_only_its_own_series(self):
        clock = SimClock(0)
        script = [{"Immediate": [0, 1, 2], "Other": [3]}, {}]
        evaluator = ScriptedEvaluator(clock, lambda e: None, script)
        for rule in SCRIPT_RULES:
            evaluator.add_rule(rule)
        evaluator.evaluate_all()
        assert {name: len(states) for name, states in evaluator._state.items()} == {
            "Immediate": 3, "Sustained": 0, "Other": 1,
        }


class TestStateIsKeptForActiveSeriesOnly:
    """A rule evaluator forgets a series once it is inactive — after its
    RESOLVED, if it fired — as Prometheus forgets inactive alerts."""

    def test_a_new_series_each_evaluation_leaves_only_the_active_ones(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        events = []
        va = VMAlert(PromQLEngine(store, lookback_ns=int(seconds(300))), clock, events.append)
        va.add_rule(RuleSpec(name="Lagging", expr="lag > 10"))
        for i in range(1000):
            clock.advance(seconds(30))
            store.ingest("lag", {"group": f"g{i}"}, 11.0, clock.now_ns)
            va.evaluate_all()
        # A sample is fresh for the 300 s lookback: the last ten or eleven
        # groups are active, and no state is kept for the others.
        assert len(va._state["Lagging"]) <= 11
        assert len(va.firing_series()) == len(va._state["Lagging"])
        firing = sum(e.state is AlertState.FIRING for e in events)
        resolved = sum(e.state is AlertState.RESOLVED for e in events)
        assert firing == 1000 and firing - resolved == len(va._state["Lagging"])

    def test_a_series_that_returns_starts_pending_afresh(self):
        clock = SimClock(0)
        script = [{"Sustained": [0]}, {"Sustained": [0]}, {}, {"Sustained": [0]}]
        evaluator = ScriptedEvaluator(clock, lambda e: None, script)
        evaluator.add_rule(SCRIPT_RULES[1])
        for _ in script:
            clock.advance(seconds(10))
            evaluator.evaluate_all()
            assert evaluator.pending_series() == [
                ("Sustained", labels) for labels in evaluator._state["Sustained"]
            ]
        (state,) = evaluator._state["Sustained"].values()
        assert state.pending_since_ns == seconds(40)

    def test_the_loki_ruler_forgets_too(self, loki_world):
        clock, store, ruler, events = loki_world
        ruler.add_rule(RuleSpec(name="R", expr='count_over_time({app=~".+"}[1m]) > 0'))
        for i in range(50):
            clock.advance(seconds(30))
            store.push(PushRequest.single({"app": f"a{i}"}, [(clock.now_ns, "x")]))
            clock.advance(seconds(1))
            ruler.evaluate_all()
        assert len(ruler._state["R"]) <= 2
        assert sum(e.state is AlertState.RESOLVED for e in events) >= 48

    def test_every_evaluator_shares_the_one_state_machine(self):
        from repro.patterns.ruler import PatternRuler

        for evaluator in (Ruler, VMAlert, PatternRuler):
            assert evaluator._advance is RuleEvaluator._advance


class TestStartedAt:
    def test_an_alert_pending_since_time_zero_started_at_zero(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        events = []
        va = VMAlert(PromQLEngine(store), clock, events.append)
        va.add_rule(RuleSpec(name="NodeDown", expr="node_up == 0", for_="1m"))
        store.ingest("node_up", {"xname": "x1c0s0b0n0"}, 0.0, 0)
        for _ in range(3):
            va.evaluate_all()
            clock.advance(seconds(30))
            store.ingest("node_up", {"xname": "x1c0s0b0n0"}, 0.0, clock.now_ns)
        clock.advance(seconds(30))
        store.ingest("node_up", {"xname": "x1c0s0b0n0"}, 1.0, clock.now_ns)
        va.evaluate_all()
        assert [(e.state, e.started_at_ns, e.fired_at_ns) for e in events] == [
            (AlertState.FIRING, 0, minutes(1)),
            (AlertState.RESOLVED, 0, minutes(2)),
        ]
