"""Recording rules: precomputed PromQL persisted back into the TSDB.

Prometheus and vmalert both support *recording rules* alongside alerting
rules: an expression evaluated on a fixed interval whose result is
written back into storage under a new metric name.  Dashboards and
alerts then read the precomputed series instead of re-deriving an
expensive ratio on every refresh — which is exactly what the SLO plane
needs, where four burn-rate windows per SLO would otherwise be computed
by the dashboard, by `logcli slo`, *and* by every alerting-rule
evaluation.

The engine evaluates rules in registration order within one cycle and
ingests each rule's output at the evaluation timestamp before moving to
the next rule (Prometheus "rule group" semantics).  The unit it hands the
query engine is not the rule, though, but the **stage**: the ordered
rules are cut, when they are added, into runs that one
:class:`~repro.common.vector.Evaluation` can answer — sharing every read
and every sub-expression the rules have in common — and the stage rule
is what makes that the same as a query per rule:

    a rule starts a new stage iff one of its selectors can match a name
    an earlier rule *of the current stage* records.

So no rule of a stage reads what a rule before it in the same stage
wrote, and an evaluation never outlives a write to what it read; there
is no cache to invalidate.  Same-cycle chaining is the cut itself (the
consumer opens a stage, whose evaluation starts after the producer's
output is in the store); a rule registered *before* its input's
producer, or reading its own output, stays in the stage and reads the
previous cycle's value through the staleness lookback, as it would
alone.  "Can match" looks at the selector's ``__name__`` matchers only —
an equality is a set membership, a regex is tried on each recorded name,
a selector without one can match anything — so it errs towards cutting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.errors import QueryError, ValidationError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet, MatchOp
from repro.common.simclock import SimClock
from repro.tempo.tracer import Tracer
from repro.tsdb.promql import (
    Group,
    PromExpr,
    PromQLEngine,
    VectorSelector,
    leaf_reads,
    parse_promql,
)
from repro.tsdb.storage import TimeSeriesStore

#: Metric names must be exposition-safe: the lexer PromQL shares with
#: LogQL has no colon token, so unlike Prometheus the conventional
#: ``job:metric:rate5m`` colons are not allowed — use underscores.
_RECORD_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


@dataclass(frozen=True)
class RecordingRule:
    """One recording rule: ``record: <name>  expr: <promql>``."""

    record: str
    expr: str
    labels: dict[str, str] = field(default_factory=dict)
    #: ``expr`` parsed, once, when the rule is built; what the engine
    #: evaluates every cycle.
    ast: PromExpr = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _RECORD_NAME_RE.match(self.record):
            raise ValidationError(
                f"recording rule output name {self.record!r} is not a "
                "valid metric name (colons are not supported)"
            )
        # Fails fast on a bad expression.
        object.__setattr__(self, "ast", parse_promql(self.expr))
        if METRIC_NAME_LABEL in self.labels:
            raise ValidationError(
                "recording rule labels may not override __name__; "
                "use `record` for the output name"
            )


#: Output label sets kept per rule; a rule over series that come and go
#: without end starts its table over rather than grow it.
MAX_OUTPUTS = 1 << 12


def recorded_as(
    rule: RecordingRule, outputs: dict[LabelSet, LabelSet], labels: LabelSet
) -> LabelSet:
    """The label set ``rule`` records a result series under: its name
    dropped, the rule's labels merged in.  The same every cycle, so done
    once per input label set and kept in ``outputs``."""
    recorded = outputs.get(labels)
    if recorded is None:
        recorded = labels.nameless()
        if rule.labels:
            recorded = recorded.with_labels(**rule.labels)
        if len(outputs) >= MAX_OUTPUTS:
            outputs.clear()
        outputs[labels] = recorded
    return recorded


class _Stage:
    """A run of consecutive rules that one evaluation answers (the stage
    rule is in the module docstring)."""

    def __init__(self, group: Group) -> None:
        self.group = group
        #: Each rule with its :func:`recorded_as` table.
        self.rules: list[tuple[RecordingRule, dict[LabelSet, LabelSet]]] = []
        self._records: set[str] = set()

    def add(self, rule: RecordingRule) -> None:
        self.group.add(rule.ast)
        self.rules.append((rule, {}))
        self._records.add(rule.record)

    def feeds(self, selector: VectorSelector) -> bool:
        """Whether ``selector`` can match a name a rule of this stage
        records, going by its ``__name__`` matchers alone."""
        on_name = [m for m in selector.matchers if m.name == METRIC_NAME_LABEL]
        for m in on_name:
            if m.op is MatchOp.EQ:  # the usual selector: one lookup
                return m.value in self._records
        return any(
            all(m.matches({METRIC_NAME_LABEL: name}) for m in on_name)
            for name in self._records
        )


class RecordingEngine:
    """Evaluates recording rules on the sim clock and persists results.

    Each cycle evaluates every rule's expression at "now" — stage by
    stage, a stage through one evaluation — relabels the result vector
    under the rule's record name (merging any static rule labels), and
    ingests the samples back into the store at the evaluation timestamp.
    """

    def __init__(
        self,
        engine: PromQLEngine,
        store: TimeSeriesStore,
        clock: SimClock,
        tracer: Tracer | None = None,
    ) -> None:
        self._engine = engine
        self._store = store
        self._clock = clock
        self._tracer = tracer
        self._rules: list[RecordingRule] = []
        self._stages: list[_Stage] = []
        self._names: set[str] = set()
        self.evaluations = 0
        self.samples_recorded = 0
        self.eval_errors = 0

    def add_rule(self, rule: RecordingRule) -> None:
        """Register ``rule`` last; duplicate record/expr pairs are rejected."""
        key = (rule.record, rule.expr)
        if any((r.record, r.expr) == key for r in self._rules):
            raise ValidationError(
                f"recording rule {rule.record!r} with this expression "
                "is already registered"
            )
        self._rules.append(rule)
        self._stage(rule)
        self._names.add(rule.record)

    def _stage(self, rule: RecordingRule) -> None:
        if not self._stages or any(
            self._stages[-1].feeds(selector) for selector, _ in leaf_reads(rule.ast)
        ):
            self._stages.append(_Stage(self._engine.group()))
        self._stages[-1].add(rule)

    def rules(self) -> tuple[RecordingRule, ...]:
        return tuple(self._rules)

    def stages(self) -> tuple[tuple[RecordingRule, ...], ...]:
        """The rules as the engine evaluates them: stage by stage."""
        return tuple(
            tuple(rule for rule, _ in stage.rules) for stage in self._stages
        )

    def records(self, name: str) -> bool:
        """Whether any registered rule outputs ``name``."""
        return name in self._names

    def evaluate_all(self) -> int:
        """Run every rule once at the current sim time.

        Returns the number of samples recorded this cycle.  A rule whose
        query fails at runtime (e.g. a many-to-one join collision) is
        counted in ``eval_errors`` and skipped; one bad rule must not
        starve the rest of the group.
        """
        now = self._clock.now_ns
        recorded = 0
        for stage in self._stages:
            evaluation = stage.group.instant(now)
            for rule, outputs in stage.rules:
                try:
                    samples = evaluation.samples(rule.ast)
                except QueryError:
                    self.eval_errors += 1
                    continue
                for sample in samples:
                    labels = recorded_as(rule, outputs, sample.labels)
                    recorded += self.record(rule.record, labels, sample.value)
        self.evaluations += 1
        self.traced(len(self._rules), recorded)
        return recorded

    def record(self, name: str, labels: LabelSet, value: float) -> bool:
        """Ingest one sample of the recorded series ``name`` at the current
        sim time and count it: a registered rule's, or one an owner that
        evaluates its own group worked out (the SLO plane's ratios, burns
        and heatmap aliases)."""
        if not self._store.ingest(name, labels, value, self._clock.now_ns):
            return False
        self.samples_recorded += 1
        return True

    def traced(self, rules: int, recorded: int) -> None:
        """The span of one recording cycle: ``rules`` evaluated,
        ``recorded`` samples ingested."""
        if self._tracer is not None:
            now = self._clock.now_ns
            self._tracer.record(
                "recording",
                "evaluate_rules",
                None,
                now,
                now,
                attributes={"rules": str(rules), "samples": str(recorded)},
            )
