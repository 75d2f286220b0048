"""Shared alerting-rule state machine.

"Loki Ruler alerting rules share the same format as Prometheus alerting
rules" (paper §IV.A) — so the pending→firing→resolved lifecycle is
implemented once here and specialised by the Loki Ruler (LogQL queries)
and vmalert (PromQL queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.durations import parse_duration_ns
from repro.common.errors import QueryError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock
from repro.common.vector import Sample
from repro.alerting.events import (
    ALERTNAME_LABEL,
    AlertEvent,
    AlertSeriesState,
    AlertState,
)

#: The sustain window of the stack's default rules: an alert fires when
#: its condition "lasts more than one minute" (paper §IV.A).
RULE_FOR = "1m"


@dataclass(frozen=True)
class RuleSpec:
    """Prometheus-format alerting rule (shared by Ruler and vmalert).

    ``annotations`` may use ``{{ $labels.<name> }}`` and ``{{ $value }}``.
    """

    name: str
    expr: str
    for_: str = "0s"
    labels: dict[str, str] = field(default_factory=dict)
    annotations: dict[str, str] = field(default_factory=dict)

    #: ``for_`` in nanoseconds, parsed (and so validated) once, when the
    #: rule is built; what every evaluation compares against.
    for_ns: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("rule needs a name")
        object.__setattr__(self, "for_ns", parse_duration_ns(self.for_))


def render_template(template: str, labels: LabelSet, value: float) -> str:
    """Render the ``{{ $labels.x }}`` / ``{{ $value }}`` template subset."""
    out = template.replace("{{ $value }}", format_value(value))
    out = out.replace("{{$value}}", format_value(value))
    for name, val in labels.items():
        out = out.replace("{{ $labels." + name + " }}", val)
        out = out.replace("{{$labels." + name + "}}", val)
    return out


def format_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


class RuleEvaluator:
    """Periodic evaluator with per-series pending/firing tracking.

    Subclasses provide ``_compile(expr)`` — validate the expression when
    the rule is added and return the form to evaluate, parsed once — and
    ``_instant(time_ns)``, the whole rule group evaluated at one instant.
    Every sample returned for a rule is an active series.  A series fires
    once it has been continuously active for the rule's ``for`` duration,
    and resolves when it disappears; a rule keeps state for its active
    series only.
    """

    def __init__(
        self,
        clock: SimClock,
        notifier: Callable[[AlertEvent], None],
        generator: str,
    ) -> None:
        self._clock = clock
        self._notifier = notifier
        self._generator = generator
        self._rules: list[RuleSpec] = []
        # Per rule name: what _compile returned for its expression, and
        # the states of the series it has seen (a rule walks only these).
        self._compiled: dict[str, Any] = {}
        self._state: dict[str, dict[LabelSet, AlertSeriesState]] = {}
        self.evaluations = 0
        self.eval_errors = 0

    # -- to be provided by subclasses --------------------------------------
    def _compile(self, expr: str) -> Any:
        """Validate ``expr`` at rule-add time; return what the query
        should be handed on every evaluation."""
        raise NotImplementedError

    def _instant(self, time_ns: int) -> Callable[[Any], list[Sample]]:
        """One evaluation of the group at ``time_ns``: a query that takes
        a compiled rule and returns its samples, sharing what the rules
        share.  It is used for one ``evaluate_all`` and dropped."""
        raise NotImplementedError

    # -- configuration ------------------------------------------------------
    def add_rule(self, rule: RuleSpec) -> None:
        if rule.name in self._compiled:
            raise ValidationError(f"duplicate rule name: {rule.name}")
        self._compiled[rule.name] = self._compile(rule.expr)
        self._state[rule.name] = {}
        self._rules.append(rule)

    def rules(self) -> list[RuleSpec]:
        return list(self._rules)

    # -- evaluation ----------------------------------------------------------
    def evaluate_all(self) -> list[AlertEvent]:
        """Evaluate every rule at the current sim time, in order, each
        rule's events notified before the next rule is evaluated.

        The group is one evaluation — one read of the store per thing
        read, however many rules read it — which rests on an invariant
        of the pipeline: **notifying writes to no store a group reads**
        (events go to Alertmanager and on to receivers; what those count
        reaches the TSDB only through the next scrape).  A rule whose
        query fails at runtime is counted in ``eval_errors`` and left
        exactly as it was — its series neither resolved nor advanced, as
        Prometheus keeps alerts over a failed evaluation — and the rest
        of the group is evaluated.
        """
        now = self._clock.now_ns
        query = self._instant(now)
        events: list[AlertEvent] = []
        for rule in self._rules:
            try:
                samples = query(self._compiled[rule.name])
            except QueryError:
                self.eval_errors += 1
                continue
            events.extend(self._advance(rule, samples, now))
        self.evaluations += 1
        return events

    def _advance(
        self, rule: RuleSpec, samples: list[Sample], now: int
    ) -> list[AlertEvent]:
        active: dict[LabelSet, Sample] = {s.labels: s for s in samples}
        states = self._state[rule.name]
        for_ns = rule.for_ns
        events: list[AlertEvent] = []

        for labels, sample in active.items():
            state = states.get(labels)
            if state is None:
                state = states[labels] = AlertSeriesState(pending_since_ns=now)
            state.last_value = sample.value
            if not state.firing and now - state.pending_since_ns >= for_ns:
                state.firing = True
                events.append(self._make_event(rule, labels, sample.value, state, now))

        # A series no longer active is forgotten, as Prometheus forgets
        # inactive alerts — after its RESOLVED, if it was firing.
        for labels in [labels for labels in states if labels not in active]:
            state = states.pop(labels)
            if state.firing:
                events.append(
                    self._make_event(
                        rule, labels, state.last_value, state, now, resolved=True
                    )
                )

        for event in events:
            self._notifier(event)
        return events

    def _make_event(
        self,
        rule: RuleSpec,
        series_labels: LabelSet,
        value: float,
        state: AlertSeriesState,
        now_ns: int,
        resolved: bool = False,
    ) -> AlertEvent:
        # Prometheus drops the metric name when building alert labels.
        labels = series_labels.without("__name__").with_labels(
            **rule.labels, **{ALERTNAME_LABEL: rule.name}
        )
        annotations = {
            key: render_template(tmpl, labels, value)
            for key, tmpl in rule.annotations.items()
        }
        return AlertEvent(
            labels=labels,
            annotations=annotations,
            state=AlertState.RESOLVED if resolved else AlertState.FIRING,
            value=value,
            started_at_ns=state.pending_since_ns,
            fired_at_ns=now_ns,
            generator=self._generator,
        )

    # -- introspection --------------------------------------------------------
    def _series(
        self, wanted: Callable[[AlertSeriesState], bool]
    ) -> list[tuple[str, LabelSet]]:
        return sorted(
            (
                (name, labels)
                for name, states in self._state.items()
                for labels, st in states.items()
                if wanted(st)
            ),
            key=lambda k: (k[0], k[1].items_tuple()),
        )

    def firing_series(self) -> list[tuple[str, LabelSet]]:
        return self._series(lambda st: st.firing)

    def pending_series(self) -> list[tuple[str, LabelSet]]:
        return self._series(lambda st: not st.firing)
