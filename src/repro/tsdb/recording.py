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
the next rule, so a rule may read the output of an earlier rule in the
*same* cycle (Prometheus "rule group" chaining).  A rule registered
before its input's producer still works — it just reads the previous
cycle's value through the staleness lookback.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL
from repro.common.simclock import SimClock, Timer
from repro.tempo.tracer import Tracer
from repro.tsdb.promql import PromExpr, PromQLEngine, parse_promql
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


class RecordingEngine:
    """Evaluates recording rules on the sim clock and persists results.

    Each evaluation queries the rule's expression as a PromQL instant
    query at "now", relabels the result vector under the rule's record
    name (merging any static rule labels), and ingests the samples back
    into the store at the evaluation timestamp.
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
        self._names: set[str] = set()
        self.evaluations = 0
        self.samples_recorded = 0
        self.eval_errors = 0

    def add_rule(self, rule: RecordingRule) -> None:
        """Register ``rule``; duplicate record/expr pairs are rejected."""
        key = (rule.record, rule.expr)
        if any((r.record, r.expr) == key for r in self._rules):
            raise ValidationError(
                f"recording rule {rule.record!r} with this expression "
                "is already registered"
            )
        self._rules.append(rule)
        self._names.add(rule.record)

    def rules(self) -> tuple[RecordingRule, ...]:
        return tuple(self._rules)

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
        for rule in self._rules:
            try:
                samples = self._engine.query_instant(rule.ast, now)
            except Exception:
                self.eval_errors += 1
                continue
            for sample in samples:
                labels = sample.labels.without(METRIC_NAME_LABEL)
                if rule.labels:
                    labels = labels.with_labels(**rule.labels)
                if self._store.ingest(rule.record, labels, sample.value, now):
                    recorded += 1
        self.evaluations += 1
        self.samples_recorded += recorded
        if self._tracer is not None:
            self._tracer.record(
                "recording",
                "evaluate_rules",
                None,
                now,
                now,
                attributes={
                    "rules": str(len(self._rules)),
                    "samples": str(recorded),
                },
            )
        return recorded

    def run_periodic(self, interval_ns: int) -> Timer:
        """Evaluate the rule group every ``interval_ns`` on the clock."""
        return self._clock.every(interval_ns, self.evaluate_all)
